"""Moment / cumulant transforms, classical and free, exact and symbolic.

Each one-letter direction is a sum over block types held to its flavor's
recursion by one check: the recursion run on the cumulants must give the
moments.  A multivariate table is solved by two routes compared word by
word.  A failed check raises InconsistencyError because the redundancy
exists to catch implementation drift, not input problems.

Sequences carry Coefficient values, so the same code runs numerically over
rational inputs and symbolically over polynomial indeterminates (c1, c2, ...
or k1, k2, ...).  Each call first checks its order against the size cap of
the lattice it sums over (``check_enumeration_size``), before any work.

Rational inputs are run on integers.  Every transform here is graded:
scaling the variable by lam multiplies each moment and cumulant of degree n
(a word of length n, for a multivariate table) by lam^n, because each term
of every route is a product of values whose degrees add up to n (Nica &
Speicher, *Lectures on the Combinatorics of Free Probability*, Lecture 11).
So with D the lcm of the input denominators, each degree-n input is
multiplied by D^n, which makes it an integer; every route, route comparison
and round trip runs unchanged on those integers, using only +, - and *; and
each degree-n result is divided by D^n once at the end.  No step rounds, so
the results equal those of the routes run on the rationals themselves.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as iter_product
from math import comb, factorial, lcm, prod
from operator import itemgetter

# registered lazily by the package: only the fixed point, the extraction
# and the multivariate tables run these layers, at their first attribute read
from . import functionals, tensor
from .coefficients import (
    ONE,
    ZERO,
    Coefficient,
    Poly,
    coeff_str,
    exact,
    parse_fraction,
)
from .errors import (
    CarrierMismatchError,
    InconsistencyError,
    NcHopfError,
    ParseError,
    SizeLimitError,
)
from .partitions import (
    NonCrossingPartition,
    Value,
    _gather,
    _gathers,
    _set,
    check_enumeration_size,
)

CLASSICAL = "classical"
FREE = "free"


def _exact_values(values) -> tuple:
    """``values`` as a tuple, each an ``int``, ``Fraction`` or ``Poly``;
    raise ValueError naming the first that is not, before any transform
    reads a float it cannot hold exactly."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, (int, Fraction, Poly)):
            raise ValueError(f"not an exact coefficient (int, Fraction or "
                             f"Poly): {v!r}")
    return values


class MomentSequence(Value):
    """Moments m_0 = 1, m_1, ..., m_N, each exact (``_exact_values``)."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple):
        values = _exact_values(values)
        if not values or values[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")
        _set(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def moment(self, n: int) -> Coefficient:
        return self.values[n]

    @classmethod
    def of(cls, positive_part) -> "MomentSequence":
        return cls((ONE,) + tuple(positive_part))


class CumulantSequence(Value):
    """Cumulants c_1, ..., c_N (classical) or k_1, ..., k_N (free), each
    exact (``_exact_values``)."""

    __slots__ = _fields = ("values", "flavor")

    def __init__(self, values: tuple, flavor: str):
        if flavor not in (CLASSICAL, FREE):
            raise ValueError(f"unknown cumulant flavor: {flavor!r}")
        _set(self, "values", _exact_values(values))
        _set(self, "flavor", flavor)

    @property
    def order(self) -> int:
        return len(self.values)

    def cumulant(self, n: int) -> Coefficient:
        return self.values[n - 1]


def _lattice(flavor: str) -> str:
    """The lattice the transforms of ``flavor`` sum over."""
    return "set" if flavor == CLASSICAL else "nc"


def symbolic_cumulants(order: int, flavor: str) -> CumulantSequence:
    """Indeterminate cumulants c1..cN or k1..kN.  N is checked first
    against the cap of the flavor's lattice: an empty sequence would have
    order 0, whatever N was asked for."""
    check_enumeration_size(_lattice(flavor), order)
    prefix = "c" if flavor == CLASSICAL else "k"
    return CumulantSequence(
        [Poly.var(f"{prefix}{i}") for i in range(1, order + 1)], flavor)


def symbolic_moments(order: int, flavor: str = FREE) -> MomentSequence:
    """Indeterminate moments m1..mN (with m_0 = 1), N checked as in
    ``symbolic_cumulants`` for the flavor of the cumulants wanted."""
    check_enumeration_size(_lattice(flavor), order)
    return MomentSequence.of(Poly.var(f"m{i}") for i in range(1, order + 1))


def _degree_scaled(solve, values, degrees=None) -> list:
    """``solve(values)`` for a graded ``solve``, run on integers (see the
    module docstring).  ``degrees[i]`` is the degree of ``values[i]`` and
    of the i-th result of ``solve``; by default the degrees are 1, 2, ...
    When a value is not a rational (a Poly), or D = 1, ``solve`` runs on
    the values as given."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return solve(values)
    d = lcm(*(v.denominator for v in values))
    if d == 1:
        return solve(values)
    degrees = range(1, len(values) + 1) if degrees is None else degrees
    power = [d ** n for n in range(max(degrees, default=0) + 1)]
    scaled = [v.numerator * (power[n] // v.denominator)
              for v, n in zip(values, degrees)]
    return [exact(Fraction(r, power[n]))
            for r, n in zip(solve(scaled), degrees)]


# ---------------------------------------------------------------------------
# lattice sums by block type
#
# In a lattice sum  sum_pi w(pi) prod_{B in pi} v(|B|)  over the set
# partitions or the non-crossing partitions of [n], the product depends on pi
# only through its type: the block sizes in decreasing order, an integer
# partition lam of n.  So the sum regroups by type, each type weighted by the
# total of w(pi) over the partitions of that type; for w = 1 and for
# w(pi) = mu(pi, 1̂) that total has a closed form.  Below, k = len(lam) and
# m_j is the number of parts equal to j.


def _integer_partitions(n: int, largest: int):
    """Partitions of n into parts of size at most ``largest``, each as a
    tuple of parts in decreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first, *rest)


def _multiplicity_factorials(lam: tuple[int, ...]) -> int:
    """prod_j m_j!"""
    total = 1
    for count in Counter(lam).values():
        total *= factorial(count)
    return total


def _set_count(n: int, lam: tuple[int, ...]) -> int:
    """Set partitions of [n] of type lam: n! / (prod lam_i! prod m_j!)."""
    return factorial(n) // (prod(map(factorial, lam))
                            * _multiplicity_factorials(lam))


def _nc_count(n: int, lam: tuple[int, ...]) -> int:
    """Non-crossing partitions of [n] of type lam (Kreweras 1972):
    n! / ((n - k + 1)! prod m_j!)."""
    return factorial(n) // (factorial(n - len(lam) + 1)
                            * _multiplicity_factorials(lam))


def _set_moebius(n: int, lam: tuple[int, ...]) -> int:
    """Total of mu(pi, 1̂_n) over the set partitions pi of type lam; each
    is (-1)^(k-1) (k-1)!."""
    k = len(lam)
    return (-1) ** (k - 1) * factorial(k - 1) * _set_count(n, lam)


def _nc_moebius(n: int, lam: tuple[int, ...]) -> int:
    """Total of mu(pi, 1̂_n) over the non-crossing partitions pi of type
    lam, by Lagrange inversion of F = K(tF):
    (-1)^(k-1) (n + k - 2)! / ((n - 1)! prod m_j!)."""
    k = len(lam)
    return (-1) ** (k - 1) * (factorial(n + k - 2) // (
        factorial(n - 1) * _multiplicity_factorials(lam)))


_WEIGHTS = (_set_count, _nc_count, _set_moebius, _nc_moebius)


@lru_cache(maxsize=None)
def _type_table(n: int) -> tuple:
    """One row per type lam |- n, in ``_integer_partitions`` order: lam
    followed by its four weights, in the order of ``_WEIGHTS``.  One table
    per degree, so the types and weights are computed once; the tail
    lam_2..lam_k of a row is a row of the table of n - lam_1."""
    return tuple((lam, *(weight(n, lam) for weight in _WEIGHTS))
                 for lam in _integer_partitions(n, n))


def _type_sums(values_by_size, order: int, weight) -> list:
    """The sums over lam |- n of weight(n, lam) * prod_i values_by_size(lam_i)
    for n = 1..order, with the weights read from each degree's type table.
    The product of a type is values_by_size(lam_1) times the product of its
    tail, which a lower degree has computed, so a type costs at most one
    multiplication; the products are held for this call only."""
    column = 1 + _WEIGHTS.index(weight)
    products: dict = {}
    sums = []
    for n in range(1, order + 1):
        total: Coefficient = ZERO
        for row in _type_table(n):
            lam = row[0]
            term = values_by_size(lam[0])
            if len(lam) > 1:
                term = term * products[lam[1:]]
            products[lam] = term
            total = total + row[column] * term
        sums.append(total)
    return sums


# ---------------------------------------------------------------------------
# the one-letter transforms


def bell_polynomials(c: CumulantSequence) -> list:
    """B_0 = 1 and B_{n+1} = sum_{j=0}^{n} C(n,j) B_{n-j} c_{j+1}, so that
    the n-th classical moment is B_n evaluated at the cumulants."""
    if c.flavor != CLASSICAL:
        raise ValueError("bell_polynomials expects classical cumulants")
    b: list = [ONE]
    for n in range(c.order):
        total: Coefficient = ZERO
        for j in range(n + 1):
            total = total + comb(n, j) * b[n - j] * c.cumulant(j + 1)
        b.append(total)
    return b


def _free_moments_series(k: CumulantSequence) -> list:
    """Degree-wise solve of F(t) = K(t F(t)) for the truncated series
    F = 1 + m_1 t + ... : m_n = sum_s k_s [t^(n-s)] F^s, and the right side
    only involves m_1..m_{n-1}, so substitution closes at each degree."""
    order = k.order
    f: list = [ONE] + [ZERO] * order
    # powers[s][d] = t^d coefficient of F^s; degree n fills s + d = n from
    # F^s = F * F^(s-1), whose factors are known up to degree n - 1
    powers: list = [[ONE] + [ZERO] * order]
    for n in range(1, order + 1):
        powers.append([ZERO] * (order + 1))
        coeff: Coefficient = ZERO
        for s in range(1, n + 1):
            d, below = n - s, powers[s - 1]
            total: Coefficient = ZERO
            for j in range(d + 1):
                total = total + f[j] * below[d - j]
            powers[s][d] = total
            coeff = coeff + k.cumulant(s) * total
        f[n] = coeff
    return f[1:]


# per flavor: the weights of the moments' and the cumulants' type sums, and
# the two routes of the moments' error text, in the order it names them
_FLAVORS = {CLASSICAL: (_set_count, _set_moebius,
                        ("bell-recursion", "partition-sum")),
            FREE: (_nc_count, _nc_moebius, ("nc-sum", "series"))}


def _transform(flavor: str, from_cumulants: bool, values) -> list:
    """One direction's type sum over the flavor's lattice: of the cumulants
    weighted by each type's count for the moments (c2m, k2m), of m_1.. by
    mu(pi, 1̂) for the cumulants (m2c, m2k).  It is held to the flavor's
    recursion, which reads no lattice: run on the cumulants (the input or
    the sum), it must give the moments."""
    count, moebius, names = _FLAVORS[flavor]
    by_sum = _type_sums(lambda n: values[n - 1], len(values),
                        count if from_cumulants else moebius)
    cumulants = CumulantSequence(values if from_cumulants else by_sum, flavor)
    recursion = (bell_polynomials(cumulants)[1:] if flavor == CLASSICAL
                 else _free_moments_series(cumulants))
    if recursion != (by_sum if from_cumulants else list(values)):
        if not from_cumulants:
            raise InconsistencyError(
                f"{flavor} cumulants: Möbius inversion does not round-trip")
        routes = ((recursion, by_sum) if flavor == CLASSICAL
                  else (by_sum, recursion))
        raise InconsistencyError(
            f"{flavor} moments: route {names[0]!r} and route {names[1]!r} "
            f"disagree: {[coeff_str(v) for v in routes[0]]} vs "
            f"{[coeff_str(v) for v in routes[1]]}")
    return by_sum


def classical_moments_from_cumulants(c: CumulantSequence) -> MomentSequence:
    """m_n by the sum over set partitions, held to the Bell recursion."""
    if c.flavor != CLASSICAL:
        raise ValueError("expected classical cumulants")
    check_enumeration_size("set", c.order)
    return MomentSequence.of(
        _degree_scaled(partial(_transform, CLASSICAL, True), c.values))


def classical_cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """c_n by Möbius inversion over the partition lattice, cross-checked by
    running the forward Bell recursion on the result."""
    check_enumeration_size("set", m.order)
    return CumulantSequence(_degree_scaled(
        partial(_transform, CLASSICAL, False), m.values[1:]), CLASSICAL)


def free_moments_from_cumulants(k: CumulantSequence) -> MomentSequence:
    """m_n by the non-crossing partition sum, cross-checked against the
    truncated series F = K(tF)."""
    if k.flavor != FREE:
        raise ValueError("expected free cumulants")
    check_enumeration_size("nc", k.order)
    return MomentSequence.of(
        _degree_scaled(partial(_transform, FREE, True), k.values))


def free_cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """k_n by Möbius inversion over the non-crossing lattice, cross-checked
    by running the series F = K(tF) forward on the result."""
    check_enumeration_size("nc", m.order)
    return CumulantSequence(_degree_scaled(
        partial(_transform, FREE, False), m.values[1:]), FREE)


def _free_moments_fixed_point(k: CumulantSequence) -> list:
    """One-letter specialization of Phi = e + kappa ≺ Phi: the moments are
    the character values on single powers of the letter.  The transforms do
    not run it; the character-bijection suite holds it to them."""
    kappa = functionals.InfinitesimalCharacter.from_atoms(
        functionals.Algebra(functionals.WORDS, ("a",)), k.order,
        lambda w: k.cumulant(len(w)), name="κ")
    phi = functionals.solve_left_fixed_point(kappa)
    return [phi((("a",) * n,)) for n in range(1, k.order + 1)]


def _extracted_cumulants(alphabet, order: int, moment):
    """Letter tuple -> kappa of that word, extracted from the multiplicative
    extension of ``moment`` (a word -> value map) on the word algebra."""
    character = functionals.Character.from_atoms(
        functionals.Algebra(functionals.WORDS, alphabet), order, moment,
        name="Φ")
    kappa = functionals.extract_infinitesimal(character)
    return lambda letters: kappa((letters,))


# ---------------------------------------------------------------------------
# multivariate free cumulants


def _letter_tuples(alphabet, degrees):
    """Every word over the alphabet, as a letter tuple, degree by degree."""
    for d in degrees:
        yield from iter_product(alphabet, repeat=d)


class MultiMomentMap(Value):
    """A total moment table word -> Coefficient for words of length <= order
    over the alphabet; the empty word has value 1 implicitly.  The alphabet
    is a tuple of distinct letters by ``tensor.is_letter``, the rule of the
    JSON reader, and the values are exact (``_exact_values``); the
    constructor raises ValueError otherwise.  The map holds its own copy of
    the caller's dict, and ``table`` hands out a fresh copy of it, so no
    caller can change the map.  The hash leaves out the table."""

    __slots__ = ("alphabet", "order", "_table")
    _fields = ("alphabet", "order", "table")

    def __init__(self, alphabet: tuple[str, ...], order: int, table: dict):
        alphabet = tensor._letters(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"alphabet has a repeated letter: {alphabet!r}")
        _set(self, "alphabet", alphabet)
        _set(self, "order", order)
        _exact_values(table.values())
        _set(self, "_table", dict(table))

    @property
    def table(self) -> dict:
        return dict(self._table)

    def __hash__(self):
        return hash((self.alphabet, self.order))

    def value(self, w: tuple[str, ...]) -> Coefficient:
        if w not in self._table:
            raise NcHopfError(f"no moment recorded for word {'.'.join(w)}")
        return self._table[w]


class MultiCumulantMap(MultiMomentMap):
    """Same shape as MultiMomentMap, holding generalized cumulants."""

    __slots__ = ()


def kappa_powers(shape: NonCrossingPartition, w: tuple[str, ...],
                 kappa) -> Coefficient:
    """Product of kappa over the blocks' restricted subwords."""
    if shape.size != len(w):
        raise CarrierMismatchError(
            f"partition of size {shape.size} cannot decorate a word of "
            f"length {len(w)}")
    total: Coefficient = ONE
    # a block's positions are 1-based and increasing
    for gather in _gathers([tuple([i - 1 for i in block])
                            for block in shape.blocks]):
        total = total * kappa(gather(w))
    return total


def _first_block_rows(n: int) -> list:
    """The proper subsets V of the positions 0..n-1 that hold 0, each as
    the gather of w_V and the gathers of V's non-empty gaps: the runs of
    positions between two consecutive members of V, and after its last."""
    rows = []
    for mask in range((1 << (n - 1)) - 1):
        kept = (0, *[i for i in range(1, n) if mask >> (i - 1) & 1])
        rows.append((_gather(kept), [
            itemgetter(slice(a + 1, b))
            for a, b in zip(kept, (*kept[1:], n)) if b > a + 1]))
    return rows


def _first_block_cumulants(moment, words) -> dict:
    """Solve moment(w) = sum over the subsets V of positions holding the
    first of kappa(w_V) times the product of moment over the gaps of V,
    for kappa(w), the term of V = all positions; returns letter tuple ->
    kappa.  In an NC partition of w, V is the block of the first letter,
    and the other blocks partition each gap on its own, so the sum over
    those partitions of a gap is its moment (the word form of
    F = K(tF)).  The words are solved shortest first, so every w_V a term
    needs is solved before it.

    Precondition, met by the caller: ``words`` holds every subword of its
    words.  A missing one raises KeyError, which is an internal fault, not
    bad input."""
    rows = {n: _first_block_rows(n) for n in set(map(len, words))}
    r: dict = {}
    for letters in sorted(words, key=len):
        total = moment(letters)
        for block, gaps in rows[len(letters)]:
            term = r[block(letters)]
            for gap in gaps:
                term = term * moment(gap(letters))
            total = total - term
        r[letters] = total
    return r


# The first-block recursion runs up to 2^(n-1) terms for each word of a
# table of order n, so a table of N words needs at most N * 2^(n-1).  The
# cap bounds time, not memory: on a 2-vCPU machine ``ab`` at order 11 (4,094
# words, just under it) takes 14 s at 30 MB, while ``abc`` at order 9 took
# 35 s at 58 MB and ``ab`` at 12 took 83 s at 46 MB, mostly extraction.
MULTI_TERM_CAP = 1 << 22


def generalized_free_cumulants(phi: MultiMomentMap) -> MultiCumulantMap:
    """Generalized cumulants of a multivariate moment table, by the
    first-block recursion and by extraction from the character extension
    of phi on the double tensor algebra; the two must agree.  The order is
    held to the non-crossing cap, and the table's words times 2^(order-1)
    to ``MULTI_TERM_CAP``, both before any work."""
    check_enumeration_size("nc", phi.order)
    count = sum(len(phi.alphabet) ** d for d in range(1, phi.order + 1))
    if count << (phi.order - 1) > MULTI_TERM_CAP:
        raise SizeLimitError(
            f"a moment table of {count} words up to order {phi.order} needs "
            f"{count} * 2^{phi.order - 1} first-block terms, more than "
            f"{MULTI_TERM_CAP}")
    words = list(_letter_tuples(phi.alphabet, range(1, phi.order + 1)))

    def solve(moments) -> list:
        table = dict(zip(words, moments))
        via_recursion = _first_block_cumulants(table.__getitem__, words)
        via_extraction = _extracted_cumulants(
            phi.alphabet, phi.order, table.__getitem__)
        for letters in words:
            kappa = via_extraction(letters)
            if kappa != via_recursion[letters]:
                raise InconsistencyError(
                    f"generalized cumulants disagree at {'.'.join(letters)}: "
                    f"{coeff_str(via_recursion[letters])} vs "
                    f"{coeff_str(kappa)}")
        return [via_recursion[letters] for letters in words]

    cumulants = _degree_scaled(
        solve, [phi.value(letters) for letters in words],
        [len(letters) for letters in words])
    return MultiCumulantMap(phi.alphabet, phi.order,
                            dict(zip(words, cumulants)))


# ---------------------------------------------------------------------------
# JSON encodings (shared with the CLI)


def _json_field(data, key: str, kind: type):
    """``data[key]``, which must be a JSON array (list) or object (dict)."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"expected a JSON object with the field {key!r}")
    if not isinstance(data[key], kind):
        raise ParseError(f"the {key!r} field must be a JSON "
                         f"{'array' if kind is list else 'object'}")
    return data[key]


def _json_values(data) -> list:
    return [parse_fraction(t) for t in _json_field(data, "values", list)]


def moment_sequence_from_json(data: dict) -> MomentSequence:
    """The moments m_1, m_2, ... that the file lists; m_0 = 1 is implied."""
    return MomentSequence.of(_json_values(data))


def cumulant_sequence_from_json(data: dict, flavor: str) -> CumulantSequence:
    return CumulantSequence(_json_values(data), flavor)


def multi_moment_map_from_json(data: dict) -> MultiMomentMap:
    alphabet = tuple(_json_field(data, "alphabet", list))
    known = {a for a in alphabet
             if isinstance(a, str) and tensor.is_letter(a)}
    if len(known) != len(alphabet):
        raise ParseError("the alphabet must list distinct letter names, "
                         "non-empty, with no blank and none of "
                         "'. | : { } ( ) ⊗ ·'")
    table = {}
    for key, text in _json_field(data, "values", dict).items():
        letters = tuple(key.split("."))
        if not known.issuperset(letters):
            raise ParseError(f"moment table key {key!r} is not a word over "
                             f"the alphabet")
        table[letters] = parse_fraction(text)
    order = max(map(len, table), default=0)
    for ls in _letter_tuples(alphabet, range(1, order + 1)):
        if ls not in table:
            raise ParseError(f"moment table misses word {'.'.join(ls)}")
    return MultiMomentMap(alphabet, order, table)
