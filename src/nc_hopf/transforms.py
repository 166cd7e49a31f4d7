"""Moment / cumulant transforms, classical and free, exact and symbolic.

Every direction is computed by at least two independent routes and the
results compared; a disagreement raises InconsistencyError because the
redundancy exists to catch implementation drift, not input problems.

Sequences carry Coefficient values, so the same code runs numerically over
Fraction inputs and symbolically over polynomial indeterminates (c1, c2, ...
or k1, k2, ...).  Each call first checks its order against the size cap of
the lattice it sums over (``check_enumeration_size``), before any work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product as iter_product
from math import comb, factorial, prod

from .coefficients import (
    ONE,
    ZERO,
    Coefficient,
    Poly,
    coeff_str,
    parse_fraction,
)
from .errors import CarrierMismatchError, InconsistencyError, ParseError
from .functionals import (
    WORDS,
    Algebra,
    InfinitesimalCharacter,
    extend_multiplicative,
    extract_infinitesimal,
    solve_left_fixed_point,
)
from .partitions import (
    NonCrossingPartition,
    check_enumeration_size,
    enumerate_nc_partitions,
)
from .tensor import Word

CLASSICAL = "classical"
FREE = "free"


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0 = 1, m_1, ..., m_N."""

    values: tuple

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def moment(self, n: int) -> Coefficient:
        return self.values[n]

    @classmethod
    def of(cls, positive_part, order: int | None = None) -> "MomentSequence":
        vals = (ONE,) + tuple(positive_part)
        if order is not None and len(vals) != order + 1:
            raise ValueError(f"expected {order} moments, got {len(vals) - 1}")
        return cls(vals)


@dataclass(frozen=True)
class CumulantSequence:
    """Cumulants c_1, ..., c_N (classical) or k_1, ..., k_N (free)."""

    values: tuple
    flavor: str

    def __post_init__(self):
        if self.flavor not in (CLASSICAL, FREE):
            raise ValueError(f"unknown cumulant flavor: {self.flavor!r}")

    @property
    def order(self) -> int:
        return len(self.values)

    def cumulant(self, n: int) -> Coefficient:
        return self.values[n - 1]


def symbolic_cumulants(order: int, flavor: str) -> CumulantSequence:
    """Indeterminate cumulants c1..cN or k1..kN."""
    prefix = "c" if flavor == CLASSICAL else "k"
    return CumulantSequence(
        tuple(Poly.var(f"{prefix}{i}") for i in range(1, order + 1)), flavor)


def symbolic_moments(order: int) -> MomentSequence:
    """Indeterminate moments m1..mN (with m_0 = 1)."""
    return MomentSequence.of(Poly.var(f"m{i}") for i in range(1, order + 1))


def _require_agreement(routes: dict[str, list], context: str):
    names = list(routes)
    reference = routes[names[0]]
    for name in names[1:]:
        if routes[name] != reference:
            raise InconsistencyError(
                f"{context}: route {names[0]!r} and route {name!r} disagree: "
                f"{[coeff_str(v) for v in reference]} vs "
                f"{[coeff_str(v) for v in routes[name]]}")


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


def _type_sum(values_by_size, n: int, weight) -> Coefficient:
    """sum over lam |- n of weight(n, lam) * prod_i values_by_size(lam_i)."""
    total: Coefficient = ZERO
    for lam in _integer_partitions(n, n):
        term: Coefficient = ONE
        for part in lam:
            term = term * values_by_size(part)
        total = total + weight(n, lam) * term
    return total


# ---------------------------------------------------------------------------
# classical


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


def classical_moments_from_cumulants(c: CumulantSequence) -> MomentSequence:
    """m_n as the n-th Bell polynomial of the cumulants, cross-checked
    against the sum over all set partitions of block-size products."""
    if c.flavor != CLASSICAL:
        raise ValueError("expected classical cumulants")
    check_enumeration_size("set", c.order)
    via_bell = bell_polynomials(c)[1:]
    via_partitions = [_type_sum(c.cumulant, n, _set_count)
                      for n in range(1, c.order + 1)]
    _require_agreement(
        {"bell-recursion": via_bell, "partition-sum": via_partitions},
        "classical moments")
    return MomentSequence.of(via_bell)


def classical_cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """c_n by Möbius inversion over the partition lattice, cross-checked by
    running the forward Bell recursion on the result."""
    check_enumeration_size("set", m.order)
    c = CumulantSequence(
        tuple(_type_sum(m.moment, n, _set_moebius)
              for n in range(1, m.order + 1)), CLASSICAL)
    back = bell_polynomials(c)[1:]
    if tuple(back) != m.values[1:]:
        raise InconsistencyError(
            "classical cumulants: Möbius inversion does not round-trip")
    return c


# ---------------------------------------------------------------------------
# free


def _one_letter_algebra() -> Algebra:
    return Algebra(WORDS, ("a",))


def _free_moments_nc_sum(k: CumulantSequence) -> list:
    return [_type_sum(k.cumulant, n, _nc_count)
            for n in range(1, k.order + 1)]


def _free_moments_fixed_point(k: CumulantSequence) -> list:
    """One-letter specialization of Phi = e + kappa ≺ Phi: the moments are
    the character values on single powers of the letter."""
    algebra = _one_letter_algebra()
    kappa = InfinitesimalCharacter.from_atoms(
        algebra, k.order, lambda w: k.cumulant(w.degree), name="κ")
    phi = solve_left_fixed_point(kappa)
    return [phi((Word(("a",) * n),)) for n in range(1, k.order + 1)]


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


def free_moments_from_cumulants(k: CumulantSequence) -> MomentSequence:
    """m_n by three independent routes (non-crossing partition sum,
    half-shuffle fixed point, truncated series F = K(tF)), all compared."""
    if k.flavor != FREE:
        raise ValueError("expected free cumulants")
    check_enumeration_size("nc", k.order)
    routes = {
        "nc-sum": _free_moments_nc_sum(k),
        "fixed-point": _free_moments_fixed_point(k),
        "series": _free_moments_series(k),
    }
    _require_agreement(routes, "free moments")
    return MomentSequence.of(routes["nc-sum"])


def free_cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """k_n by Möbius inversion over the non-crossing lattice, cross-checked
    against extraction from the multiplicative extension of the moments."""
    check_enumeration_size("nc", m.order)
    via_moebius = [_type_sum(m.moment, n, _nc_moebius)
                   for n in range(1, m.order + 1)]

    algebra = _one_letter_algebra()
    phi = extend_multiplicative(
        algebra, m.order, lambda w: m.moment(w.degree), name="Φ")
    kappa = extract_infinitesimal(phi)
    via_extraction = [kappa((Word(("a",) * n),))
                      for n in range(1, m.order + 1)]
    _require_agreement(
        {"nc-moebius": via_moebius, "fixed-point-extraction": via_extraction},
        "free cumulants")
    return CumulantSequence(tuple(via_moebius), FREE)


# ---------------------------------------------------------------------------
# multivariate free cumulants


@dataclass(frozen=True)
class MultiMomentMap:
    """A total moment table word -> Coefficient for words of length <= order
    over the alphabet; the empty word has value 1 implicitly."""

    alphabet: tuple[str, ...]
    order: int
    table: dict = field(hash=False)

    def value(self, w: Word) -> Coefficient:
        if w.letters not in self.table:
            raise KeyError(f"no moment recorded for word {w.text()}")
        return self.table[w.letters]

    def words(self, degree: int) -> list[Word]:
        return [Word(ls) for ls in iter_product(self.alphabet, repeat=degree)]

    @classmethod
    def from_function(cls, alphabet, order: int, fn) -> "MultiMomentMap":
        alphabet = tuple(alphabet)
        table = {}
        for d in range(1, order + 1):
            for ls in iter_product(alphabet, repeat=d):
                table[ls] = fn(Word(ls))
        return cls(alphabet, order, table)


class MultiCumulantMap(MultiMomentMap):
    """Same shape as MultiMomentMap, holding generalized cumulants."""


def kappa_powers(shape: NonCrossingPartition, w: Word, kappa) -> Coefficient:
    """Product of kappa over the blocks' restricted subwords."""
    if shape.size != w.degree:
        raise CarrierMismatchError(
            f"partition of size {shape.size} cannot decorate a word of "
            f"length {w.degree}")
    total: Coefficient = ONE
    for block in shape.blocks:
        total = total * kappa(w.subword(block))
    return total


def _cumulants_by_recursion(phi: MultiMomentMap) -> dict:
    """Solve phi(w) = sum over NC of block-wise cumulant products for the
    one-block term, degree by degree."""
    r: dict = {}

    def value(w: Word) -> Coefficient:
        if w.letters in r:
            return r[w.letters]
        total = phi.value(w)
        for shape in enumerate_nc_partitions(w.degree):
            if len(shape.blocks) == 1:
                continue
            total = total - kappa_powers(shape, w, value)
        r[w.letters] = total
        return total

    for d in range(1, phi.order + 1):
        for w in phi.words(d):
            value(w)
    return r


def generalized_free_cumulants(phi: MultiMomentMap) -> MultiCumulantMap:
    """Generalized cumulants of a multivariate moment table, by the direct
    recursive solve and by extraction from the character extension of phi on
    the double tensor algebra; the two must agree."""
    check_enumeration_size("nc", phi.order)
    via_recursion = _cumulants_by_recursion(phi)

    algebra = Algebra(WORDS, phi.alphabet)
    character = extend_multiplicative(algebra, phi.order, phi.value, name="Φ")
    kappa = extract_infinitesimal(character)
    for d in range(1, phi.order + 1):
        for w in phi.words(d):
            if kappa((w,)) != via_recursion[w.letters]:
                raise InconsistencyError(
                    f"generalized cumulants disagree at {w.text()}: "
                    f"{coeff_str(via_recursion[w.letters])} vs "
                    f"{coeff_str(kappa((w,)))}")
    return MultiCumulantMap(phi.alphabet, phi.order, via_recursion)


# ---------------------------------------------------------------------------
# JSON encodings (shared with the CLI)


def moment_sequence_from_json(data: dict) -> MomentSequence:
    vals = [parse_fraction(t) for t in data["values"]]
    if vals and vals[0] == 1:
        vals = vals[1:]  # accept either m_0-led or m_1-led lists
    return MomentSequence.of(vals)


def cumulant_sequence_from_json(data: dict, flavor: str) -> CumulantSequence:
    vals = tuple(parse_fraction(t) for t in data["values"])
    return CumulantSequence(vals, flavor)


def multi_moment_map_from_json(data: dict) -> MultiMomentMap:
    alphabet = tuple(data["alphabet"])
    values = {tuple(key.split(".")): parse_fraction(text)
              for key, text in data["values"].items()}
    order = max((len(k) for k in values), default=0)
    table = dict(values)
    for d in range(1, order + 1):
        for ls in iter_product(alphabet, repeat=d):
            if ls not in table:
                raise ParseError(f"moment table misses word {'.'.join(ls)}")
    return MultiMomentMap(alphabet, order, table)
