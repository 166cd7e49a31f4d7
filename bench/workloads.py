"""Request streams, request execution and response checks for the three
benchmark workloads.

Inputs are drawn from ``random.Random(seed)`` with this module's own helpers,
never with the library, so generating a request warms no library cache.  A
request is plain data: ``(kind, *params)``.  ``execute`` turns it into calls
into the library's public modules, looked up at call time so that the traced
run's wrappers see them.  ``check`` validates a response outside the timed
interval, against identities computed by this module's own code wherever the
library is not needed.

Every workload is built from decks: a deck holds each (kind, size) slot of the
workload's mix a fixed number of times, shuffled.  The seed picks the concrete
inputs and the order; the mix, and so the latency distribution, is the same
for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction

TRANSFORMS = "transforms"
HOPF = "hopf"
CLI_COLD = "cli_cold"
WORKLOADS = (TRANSFORMS, HOPF, CLI_COLD)

DIRECTIONS = ("k2m", "m2k", "c2m", "m2c")

# Seed of the fixed warm-up deck; warm-up inputs do not depend on --seed.
WARMUP_SEED = -1

# Per-request time budgets; a request over budget counts as failed.
BUDGET_S = {TRANSFORMS: 10.0, HOPF: 10.0, CLI_COLD: 30.0}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def under_src(path: str) -> bool:
    """Whether ``path`` lies under this tree's src/, i.e. the imported
    library is the one under test."""
    src = os.path.realpath(SRC)
    return os.path.commonpath([os.path.realpath(path), src]) == src


# ---------------------------------------------------------------------------
# own combinatorics (independent of the library)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def nc_partitions(elements: tuple) -> list[list[tuple]]:
    """All non-crossing partitions of a sorted tuple, as lists of blocks."""
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    out = []
    for mask in range(1 << len(rest)):
        chosen = [x for i, x in enumerate(rest) if mask >> i & 1]
        gaps: list[list] = [[]]
        for x in rest:
            if chosen and x in chosen:
                gaps.append([])
            else:
                gaps[-1].append(x)
        partial = [[(first, *chosen)]]
        for gap in gaps:
            partial = [p + sub for p in partial
                       for sub in nc_partitions(tuple(gap))]
        out.extend(partial)
    return out


def random_nc(rng: random.Random, n: int, p: float = 0.35) -> list[tuple]:
    """A random non-crossing partition of [n]: the block of the first element
    takes each later element with probability ``p``; the gaps recurse."""
    blocks: list[tuple] = []

    def fill(elements: list[int]):
        if not elements:
            return
        first, rest = elements[0], elements[1:]
        chosen = [x for x in rest if rng.random() < p]
        blocks.append((first, *chosen))
        gap: list[int] = []
        for x in rest:
            if chosen and x == chosen[0]:
                chosen.pop(0)
                fill(gap)
                gap = []
            else:
                gap.append(x)
        fill(gap)

    fill(list(range(1, n + 1)))
    return sorted(blocks)


def random_set_partition(rng: random.Random, n: int) -> list[tuple]:
    """A random partition of [n] from a random restricted growth string."""
    labels = [0]
    for _ in range(1, n):
        labels.append(rng.randint(0, max(labels) + 1))
    blocks: dict[int, list[int]] = {}
    for pos, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(pos)
    return sorted(tuple(b) for b in blocks.values())


def random_refinement(rng: random.Random, blocks: list[tuple]) -> list[tuple]:
    """Split every block at random into contiguous-label sub-blocks."""
    out = []
    for block in blocks:
        labels = [0]
        for _ in range(1, len(block)):
            labels.append(rng.randint(0, max(labels) + 1))
        parts: dict[int, list[int]] = {}
        for x, label in zip(block, labels):
            parts.setdefault(label, []).append(x)
        out.extend(tuple(p) for p in parts.values())
    return sorted(out)


def random_word(rng: random.Random, n: int, alphabet: str = "abc") -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(n))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_tree(rng: random.Random, degree: int) -> str:
    """A random planar rooted tree with ``degree`` non-root vertices, as the
    library's bracket encoding."""
    # random balanced bracket word of length 2*degree, by rejection-free
    # sampling of a Dyck path
    opens, closes, depth, out = degree, degree, 0, []
    while opens or closes:
        if opens and (depth == 0 or rng.random() < opens / (opens + closes)):
            out.append("(")
            opens -= 1
            depth += 1
        else:
            out.append(")")
            closes -= 1
            depth -= 1
    return "(" + "".join(out) + ")"


def partition_text(blocks) -> str:
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def nesting_parents(blocks: list[tuple]) -> list[int | None]:
    """Index of the innermost block strictly enclosing each block."""
    parents: list[int | None] = []
    for i, b in enumerate(blocks):
        best = None
        for j, o in enumerate(blocks):
            if i != j and o[0] < b[0] and b[-1] < o[-1]:
                if best is None or blocks[best][0] < o[0]:
                    best = j
        parents.append(best)
    return parents


def split_count(blocks: list[tuple]) -> int:
    """Number of admissible splits: block sets closed under passing to the
    enclosing block, i.e. up-sets of the nesting forest."""
    parents = nesting_parents(blocks)
    children: dict[int | None, list[int]] = {}
    for i, p in enumerate(parents):
        children.setdefault(p, []).append(i)

    def up_sets(i: int) -> int:
        return 1 + math.prod(up_sets(c) for c in children.get(i, []))

    return math.prod(up_sets(r) for r in children.get(None, []))


def nesting_tree(blocks: list[tuple]) -> tuple:
    """The block-nesting tree in the library's nested-tuple form."""
    parents = nesting_parents(blocks)

    def build(parent):
        kids = sorted((i for i, p in enumerate(parents) if p == parent),
                      key=lambda i: blocks[i][0])
        return tuple(build(i) for i in kids)

    return build(None)


def cut_count(tree: tuple) -> int:
    """Number of admissible edge cuts of a nested-tuple tree."""
    return math.prod(1 + cut_count(child) for child in tree)


def tree_size(tree: tuple) -> int:
    return sum(1 + tree_size(child) for child in tree)


def moebius_set(lo: list[tuple], hi: list[tuple]) -> int:
    """Closed form of mu(lo, hi) in the set-partition lattice."""
    value = 1
    for h in hi:
        k = sum(1 for b in lo if set(b) <= set(h))
        value *= (-1) ** (k - 1) * math.factorial(k - 1)
    return value


def moebius_nc_from_bottom(hi: list[tuple]) -> int:
    """Closed form of mu(0, hi) in the non-crossing lattice."""
    return math.prod((-1) ** (len(b) - 1) * catalan(len(b) - 1) for b in hi)


_TERM_SPLIT = re.compile(r" ([+-]) ")


def text_coefficient_sum(text: str) -> Fraction:
    """Sum of the coefficients of a polynomial in the library's canonical
    text form, i.e. its value with every indeterminate set to 1."""
    sign, total = 1, Fraction(0)
    body = text
    if body.startswith("-"):
        sign, body = -1, body[1:]
    pieces = _TERM_SPLIT.split(body)
    for i in range(0, len(pieces), 2):
        head = pieces[i].split("*")[0]
        coeff = Fraction(head) if re.fullmatch(r"\d+(/\d+)?", head) else 1
        total += sign * coeff
        if i + 1 < len(pieces):
            sign = 1 if pieces[i + 1] == "+" else -1
    return total


# ---------------------------------------------------------------------------
# decks


def _transforms_deck(rng: random.Random, warmup: bool) -> list:
    deck = []
    numeric_copies = 1 if warmup else 3
    for direction in DIRECTIONS:
        for order in range(4, 9):
            for _ in range(numeric_copies):
                values = tuple(random_fraction(rng) for _ in range(order))
                deck.append(("num", direction, values))
        for order in range(4, 8):
            deck.append(("sym", direction, order))
    for letters in ("ab", "abc"):
        for order in (3, 4):
            for _ in range(1 if warmup else 2):
                table = {w: random_fraction(rng)
                         for d in range(1, order + 1)
                         for w in _words(letters, d)}
                deck.append(("multi", tuple(letters), order, table))
    return deck


def _words(letters: str, degree: int) -> list[tuple]:
    words = [()]
    for _ in range(degree):
        words = [w + (a,) for w in words for a in letters]
    return words


def _random_barword(rng: random.Random, kind: str, degree: int) -> tuple:
    """Plain-data bar word: a tuple of (blocks or None, letters) atoms."""
    atoms, left = [], degree
    while left:
        size = rng.randint(1, left)
        left -= size
        shape = random_nc(rng, size) if kind == "nc" else None
        atoms.append((shape, random_word(rng, size)))
    return tuple(atoms)


def _hopf_deck(rng: random.Random, warmup: bool) -> list:
    copies = 1 if warmup else 2
    deck = []
    for n in range(6, 11):
        for _ in range(copies):
            deck.append(("delta_nc", random_nc(rng, n), random_word(rng, n)))
    for n in range(5, 10):
        for _ in range(copies):
            deck.append(("delta_word", random_word(rng, n)))
    for degree in range(3, 7):
        first = rng.randint(max(1, degree - 3), degree)
        words = [random_word(rng, first)]
        if degree > first:
            words.append(random_word(rng, degree - first))
        deck.append(("sp", tuple(words)))
    for n in range(6, 12):
        deck.append(("tree", random_nc(rng, n)))
    for kind in ("words", "nc"):
        for degree in range(4, 7):
            deck.append(("convolve", kind, degree,
                         rng.randrange(1 << 30), rng.randrange(1 << 30),
                         _random_barword(rng, kind, degree)))
            atom = ((random_nc(rng, degree) if kind == "nc" else None),
                    random_word(rng, degree))
            deck.append(("fixed_point", kind, degree,
                         rng.randrange(1 << 30), atom))
    return deck


def _cli_deck(rng: random.Random, warmup: bool) -> list:
    """Each entry is ("cli", argv, files) with files a name -> text map that
    the runner writes before the timed loop; argv names them by key."""
    deck = []

    def add(argv, files=None):
        deck.append(("cli", tuple(argv), files or {}))

    def maybe_json():
        return ["--json"] if rng.random() < 0.3 else []

    for n in range(5, 10):
        add(["enumerate", "nc", "--n", str(n), "--count", *maybe_json()])
    for n in range(3, 8):
        add(["enumerate", "set", "--n", str(n), "--count", *maybe_json()])
    for copy in range(2):
        for n in range(4, 8):
            add(["coproduct", "nc", partition_text(random_nc(rng, n)),
                 *maybe_json()])
            add(["coproduct", "word", ".".join(random_word(rng, n - 1)),
                 *maybe_json()])
            add(["coproduct", "tree", random_tree(rng, n - 1), *maybe_json()])
            add(["split", partition_text(random_nc(rng, n + 1)),
                 *maybe_json()])
            add(["tree", partition_text(random_nc(rng, n + 2)), "--coproduct",
                 *maybe_json()])
        for n in range(3, 7):
            hi = random_nc(rng, n, p=0.5)
            add(["moebius", "nc", partition_text([(x,) for x in range(1, n + 1)]),
                 partition_text(hi), *maybe_json()])
            hi = random_set_partition(rng, n)
            add(["moebius", "set", partition_text(random_refinement(rng, hi)),
                 partition_text(hi), *maybe_json()])
    for direction in DIRECTIONS:
        flavor = "free" if direction in ("k2m", "m2k") else "classical"
        for n in range(4, 8):
            add(["transform", flavor, "--direction", direction, "--symbolic",
                 "--n", str(n), *maybe_json()])
            values = [str(random_fraction(rng)) for _ in range(n)]
            if direction in ("m2k", "m2c"):
                values = ["1"] + values  # m_0-led, read unambiguously
            add(["transform", flavor, "--direction", direction, "--in",
                 "@in.json", *maybe_json()],
                {"in.json": json.dumps({"values": values})})
    for letters, order in (("ab", 3), ("ab", 4), ("abc", 3)):
        table = {".".join(w): str(random_fraction(rng))
                 for d in range(1, order + 1) for w in _words(letters, d)}
        add(["transform", "free", "--direction", "multi-m2k", "--in",
             "@in.json", *maybe_json()],
            {"in.json": json.dumps({"alphabet": list(letters),
                                    "values": table})})
    for suite, degree in (("counting", 4), ("coassociativity", 3),
                          ("unshuffle", 3), ("keyrell", 3), ("roundtrip", 3),
                          ("semicircular", 4), ("moebius", 4)):
        add(["verify", suite, "--max-degree", str(degree), *maybe_json()])
    return deck


_DECKS = {TRANSFORMS: _transforms_deck, HOPF: _hopf_deck, CLI_COLD: _cli_deck}

# Wall seconds one deck takes on the reference machine (see README.md); a run
# executes ceil(seconds / DECK_SECONDS) decks, so its work is fixed by
# --seconds alone and does not shrink or grow with the program's speed.
DECK_SECONDS = {TRANSFORMS: 1.5, HOPF: 0.2, CLI_COLD: 20.0}


def deck(workload: str, seed: int, index: int) -> list:
    """Deck ``index`` of the stream for ``seed``, shuffled."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cards = _DECKS[workload](rng, warmup=seed == WARMUP_SEED)
    rng.shuffle(cards)
    return cards


def decks_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / DECK_SECONDS[workload] - 1e-9))


def requests(workload: str, seed: int, seconds: float,
             limit: int | None = None) -> list:
    out = []
    for index in range(decks_for(workload, seconds)):
        out.extend(deck(workload, seed, index))
    return out[:limit] if limit else out


def warmup_requests(workload: str) -> list:
    """One of every distinct slot of the mix, from a fixed seed.  The
    cli_cold workload has none: every request there starts cold."""
    if workload == CLI_COLD:
        return []
    return deck(workload, WARMUP_SEED, 0)


# ---------------------------------------------------------------------------
# in-process execution (library calls; run inside the timed interval)


def execute(req):
    """Run one in-process request and return its response."""
    return _EXECUTE[req[0]](*req[1:])


def _lib():
    import nc_hopf
    return nc_hopf


def _exec_num(direction, values):
    T = _lib().transforms
    if direction == "k2m":
        out = T.free_moments_from_cumulants(T.CumulantSequence(values, T.FREE))
    elif direction == "c2m":
        out = T.classical_moments_from_cumulants(
            T.CumulantSequence(values, T.CLASSICAL))
    elif direction == "m2k":
        out = T.free_cumulants_from_moments(T.MomentSequence.of(values))
    else:
        out = T.classical_cumulants_from_moments(T.MomentSequence.of(values))
    result = out.values[1:] if direction in ("k2m", "c2m") else out.values
    C = _lib().coefficients
    return result, [C.coeff_str(v) for v in result]


def _exec_sym(direction, order):
    T = _lib().transforms
    if direction == "k2m":
        out = T.free_moments_from_cumulants(T.symbolic_cumulants(order, T.FREE))
    elif direction == "c2m":
        out = T.classical_moments_from_cumulants(
            T.symbolic_cumulants(order, T.CLASSICAL))
    elif direction == "m2k":
        out = T.free_cumulants_from_moments(T.symbolic_moments(order))
    else:
        out = T.classical_cumulants_from_moments(T.symbolic_moments(order))
    result = out.values[1:] if direction in ("k2m", "c2m") else out.values
    C = _lib().coefficients
    return result, [C.coeff_str(v) for v in result]


def _exec_multi(alphabet, order, table):
    T = _lib().transforms
    out = T.generalized_free_cumulants(
        T.MultiMomentMap(alphabet, order, dict(table)))
    return dict(out.table)


def _atom(kind, shape, letters):
    H = _lib()
    word = H.tensor.Word(letters)
    if kind == "words":
        return word
    return H.tensor.DecoratedNC(H.partitions.NonCrossingPartition.of(shape),
                                word)


def _exec_delta_nc(blocks, letters):
    H = _lib()
    x = _atom("nc", blocks, letters)
    full = H.tensor.delta_nc(x)
    left, right = H.tensor.delta_nc_halves(x)
    return full, left, right


def _exec_delta_word(letters):
    H = _lib()
    w = H.tensor.Word(letters)
    full = H.tensor.delta_word(w)
    left, right = H.tensor.delta_word_halves(w)
    return full, left, right


def _exec_sp(words):
    H = _lib()
    return H.tensor.sp(tuple(H.tensor.Word(w) for w in words))


def _algebra(kind):
    F = _lib().functionals
    return F.Algebra(F.WORDS if kind == "words" else F.NC, ("a", "b", "c"))


def _exec_convolve(kind, degree, seed_f, seed_g, barword):
    F = _lib().functionals
    algebra = _algebra(kind)
    b = tuple(_atom(kind, shape, letters) for shape, letters in barword)
    f = F.random_functional(algebra, degree, seed_f)
    g = F.random_functional(algebra, degree, seed_g)
    return (F.convolve(f, g)(b), F.half_convolve(f, g, "left")(b),
            F.half_convolve(f, g, "right")(b))


def _exec_fixed_point(kind, degree, seed, atom):
    F = _lib().functionals
    kappa = F.random_infinitesimal(_algebra(kind), degree, seed)
    b = (_atom(kind, *atom),)
    phi = F.solve_left_fixed_point(kappa)
    return F.extract_infinitesimal(phi)(b), kappa


def _exec_tree(blocks):
    Tr = _lib().trees
    t = Tr.hierarchy_tree(_lib().partitions.NonCrossingPartition.of(blocks))
    return t, Tr.tree_coproduct(t)


_EXECUTE = {
    "num": _exec_num, "sym": _exec_sym, "multi": _exec_multi,
    "delta_nc": _exec_delta_nc, "delta_word": _exec_delta_word,
    "sp": _exec_sp, "convolve": _exec_convolve,
    "fixed_point": _exec_fixed_point, "tree": _exec_tree,
}


# ---------------------------------------------------------------------------
# checks (outside the timed interval)


def check(req, resp) -> bool:
    """Whether ``resp`` is a correct response to ``req``."""
    return _CHECK[req[0]](resp, *req[1:])


def _check_num(resp, direction, values):
    result, texts = resp
    if len(result) != len(values):
        return False
    if [Fraction(t) for t in texts] != list(result):
        return False
    # the inverse transform returns the input
    inverse = {"k2m": "m2k", "m2k": "k2m", "c2m": "m2c", "m2c": "c2m"}
    back, _ = _exec_num(inverse[direction], tuple(result))
    return tuple(back) == tuple(values)


def _check_sym(resp, direction, order):
    result, texts = resp
    if len(result) != order or len(texts) != order:
        return False
    for n, (value, text) in enumerate(zip(result, texts), start=1):
        if direction == "k2m":
            expect = catalan(n)
        elif direction == "c2m":
            expect = bell(n)
        else:
            # Möbius values over a whole interval sum to zero
            expect = 1 if n == 1 else 0
        if sum(value.terms.values()) != expect:
            return False
        if text_coefficient_sum(text) != expect:
            return False
    return True


def _check_multi(resp, alphabet, order, table):
    # single letters reproduce their moments
    if any(resp[(a,)] != table[(a,)] for a in alphabet):
        return False
    # and every moment is the sum over NC partitions of cumulant products
    for word, moment in table.items():
        total = Fraction(0)
        for blocks in nc_partitions(tuple(range(len(word)))):
            term = Fraction(1)
            for block in blocks:
                term *= resp[tuple(word[i] for i in block)]
            total += term
        if total != moment:
            return False
    return True


def _halves_sum(full, left, right) -> bool:
    total = dict(left)
    for key, c in right.items():
        total[key] = total.get(key, 0) + c
    return {k: v for k, v in total.items() if v} == full


def _check_delta_nc(resp, blocks, letters):
    full, left, right = resp
    return (_halves_sum(full, left, right)
            and sum(full.values()) == split_count(blocks))


def _check_delta_word(resp, letters):
    full, left, right = resp
    return (_halves_sum(full, left, right)
            and sum(full.values()) == 2 ** len(letters))


def _check_sp(resp, words):
    return sum(resp.values()) == math.prod(catalan(len(w)) for w in words)


def _check_convolve(resp, *params):
    full, left, right = resp
    return left + right == full


def _check_fixed_point(resp, kind, degree, seed, atom):
    recovered, kappa = resp
    return recovered == kappa((_atom(kind, *atom),))


def _check_tree(resp, blocks):
    tree, coproduct = resp
    return (tree == nesting_tree(blocks)
            and tree_size(tree) == len(blocks)
            and sum(coproduct.values()) == cut_count(tree))


_CHECK = {
    "num": _check_num, "sym": _check_sym, "multi": _check_multi,
    "delta_nc": _check_delta_nc, "delta_word": _check_delta_word,
    "sp": _check_sp, "convolve": _check_convolve,
    "fixed_point": _check_fixed_point, "tree": _check_tree,
}


def check_cli_reference(argv, stdout: str) -> bool:
    """Closed-form checks on a reference CLI output, where one exists."""
    as_json = "--json" in argv
    if argv[0] == "enumerate":
        n = int(argv[argv.index("--n") + 1])
        count = json.loads(stdout)["count"] if as_json else int(stdout)
        return count == (catalan(n) if argv[1] == "nc" else bell(n))
    if argv[0] == "moebius":
        value = json.loads(stdout)["moebius"] if as_json else int(stdout)
        lo, hi = parse_blocks(argv[2]), parse_blocks(argv[3])
        if argv[1] == "set":
            return value == moebius_set(lo, hi)
        return value == moebius_nc_from_bottom(hi)
    return True


def parse_blocks(text: str) -> list[tuple]:
    return [tuple(int(x) for x in body.split(","))
            for body in re.findall(r"\{([0-9,]+)\}", text)]
