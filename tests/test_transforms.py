import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import nc_hopf
from nc_hopf import transforms, verify
from nc_hopf.coefficients import Poly, exact, poly_str
from nc_hopf.errors import (
    CarrierMismatchError,
    InconsistencyError,
    NcHopfError,
    SizeLimitError,
)
from nc_hopf.partitions import (
    NonCrossingPartition,
    bell_number,
    catalan_number,
    enumerate_nc_partitions,
    enumerate_set_partitions,
    moebius_to_top,
)
from nc_hopf.tensor import Word
from nc_hopf.transforms import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    MultiCumulantMap,
    MultiMomentMap,
    bell_polynomials,
    classical_cumulants_from_moments,
    classical_moments_from_cumulants,
    cumulant_sequence_from_json,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
    generalized_free_cumulants,
    kappa_powers,
    moment_sequence_from_json,
    multi_moment_map_from_json,
    symbolic_cumulants,
    symbolic_moments,
)

BELL_TABLE = {
    1: "c1",
    2: "c1^2 + c2",
    3: "c1^3 + 3*c1*c2 + c3",
    4: "c1^4 + 6*c1^2*c2 + 3*c2^2 + 4*c1*c3 + c4",
    5: "c1^5 + 10*c1^3*c2 + 15*c1*c2^2 + 10*c1^2*c3 + 10*c2*c3 + 5*c1*c4 + c5",
}

FREE_TABLE = {
    1: "k1",
    2: "k1^2 + k2",
    3: "k1^3 + 3*k1*k2 + k3",
    4: "k1^4 + 6*k1^2*k2 + 2*k2^2 + 4*k1*k3 + k4",
}


def random_values(n, seed):
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 5))
                 for _ in range(n))


def moment_map(alphabet, order, fn) -> MultiMomentMap:
    """The moment table of ``fn`` on every word up to ``order`` letters,
    degree by degree."""
    return MultiMomentMap(tuple(alphabet), order, {
        w: fn(w) for d in range(1, order + 1)
        for w in product(alphabet, repeat=d)})


class TestSequenceTypes:
    def test_moment_sequence_starts_at_one(self):
        with pytest.raises(ValueError):
            MomentSequence((Fraction(2),))
        m = MomentSequence.of([Fraction(3)])
        assert m.moment(0) == 1 and m.moment(1) == 3 and m.order == 1

    def test_cumulant_flavor_checked(self):
        with pytest.raises(ValueError):
            CumulantSequence((Fraction(1),), "bogus")

    def test_flavor_preconditions(self):
        k = symbolic_cumulants(3, FREE)
        with pytest.raises(ValueError):
            classical_moments_from_cumulants(k)
        c = symbolic_cumulants(3, CLASSICAL)
        with pytest.raises(ValueError):
            free_moments_from_cumulants(c)

    @pytest.mark.parametrize("transform,given,expected", [
        (free_cumulants_from_moments, CumulantSequence((1, 2, 3), FREE),
         "MomentSequence, not CumulantSequence"),
        (classical_cumulants_from_moments,
         CumulantSequence((1, 2, 3), CLASSICAL),
         "MomentSequence, not CumulantSequence"),
        (free_moments_from_cumulants, MomentSequence((1, 2, 3)),
         "CumulantSequence, not MomentSequence"),
        (classical_moments_from_cumulants, MomentSequence((1, 2, 3)),
         "CumulantSequence, not MomentSequence"),
        (bell_polynomials, MomentSequence((1, 2, 3)),
         "CumulantSequence, not MomentSequence"),
        (generalized_free_cumulants, MomentSequence((1, 2, 3)),
         "MultiMomentMap, not MomentSequence"),
        (generalized_free_cumulants,
         MultiCumulantMap(("a",), 2, {("a",): 1, ("a", "a"): 1}),
         "MultiMomentMap, not MultiCumulantMap"),
    ], ids=["m2k", "m2c", "k2m", "c2m", "bell", "multi", "multi-cumulants"])
    def test_the_wrong_sequence_type_raises_before_any_work(
            self, monkeypatch, transform, given, expected):
        # cumulants read as moments would take k_1 for m_0; moments have no
        # flavor or alphabet to read
        def unreachable(*args):
            raise AssertionError("a transform started work")

        monkeypatch.setattr(transforms, "check_enumeration_size",
                            unreachable)
        monkeypatch.setattr(transforms, "_degree_scaled", unreachable)
        with pytest.raises(ValueError, match=f"^expected a {expected}$"):
            transform(given)


def stored_types(value) -> list:
    """The type of each field of ``value``, and of each value stored in a
    field that is a tuple or a dict, keyed by position or by key."""
    out = []
    for field in value._values():
        items = (field.items() if isinstance(field, dict)
                 else enumerate(field) if isinstance(field, tuple) else ())
        out.append((type(field), [(key, type(v)) for key, v in items]))
    return out


class TestUncheckedResults:
    """The transforms build their results without the constructor's
    checks; each result must be what its public constructor makes of the
    same fields: the same class, fields and hash, and the same type for
    every stored value."""

    @staticmethod
    def values(kind, n):
        return (tuple(range(2, n + 2)) if kind == "integer"
                else random_values(n, 7))

    def assert_passes_the_constructor(self, result, twin):
        assert type(result) is type(twin)
        assert result == twin and hash(result) == hash(twin)
        assert stored_types(result) == stored_types(twin)

    @pytest.mark.parametrize("kind", ["integer", "rational", "symbolic"])
    @pytest.mark.parametrize("flavor", [CLASSICAL, FREE])
    def test_moments_pass_the_constructor(self, flavor, kind):
        given = (symbolic_cumulants(5, flavor) if kind == "symbolic"
                 else CumulantSequence(self.values(kind, 5), flavor))
        transform = (classical_moments_from_cumulants if flavor == CLASSICAL
                     else free_moments_from_cumulants)
        m = transform(given)
        self.assert_passes_the_constructor(m, MomentSequence(m.values))

    @pytest.mark.parametrize("kind", ["integer", "rational", "symbolic"])
    @pytest.mark.parametrize("flavor", [CLASSICAL, FREE])
    def test_cumulants_pass_the_constructor(self, flavor, kind):
        given = (symbolic_moments(5, flavor) if kind == "symbolic"
                 else MomentSequence.of(self.values(kind, 5)))
        transform = (classical_cumulants_from_moments if flavor == CLASSICAL
                     else free_cumulants_from_moments)
        c = transform(given)
        assert c.flavor == flavor
        self.assert_passes_the_constructor(
            c, CumulantSequence(c.values, c.flavor))

    @pytest.mark.parametrize("kind", ["integer", "rational"])
    def test_multi_cumulants_pass_the_constructor(self, kind):
        values = self.values(kind, 3)
        phi = moment_map(("a", "b"), 3,
                         lambda w: values[len(w) - 1] * (1 + w.count("b")))
        k = generalized_free_cumulants(phi)
        self.assert_passes_the_constructor(
            k, MultiCumulantMap(k.alphabet, k.order, k.table))


class TestClassical:
    def test_bell_polynomial_table(self):
        c = symbolic_cumulants(5, CLASSICAL)
        m = classical_moments_from_cumulants(c)
        for n, text in BELL_TABLE.items():
            assert poly_str(m.moment(n)) == text

    def test_bell_recursion_values(self):
        # all cumulants 1: moments become the Bell numbers
        c = CumulantSequence((Fraction(1),) * 8, CLASSICAL)
        m = classical_moments_from_cumulants(c)
        assert [m.moment(n) for n in range(1, 9)] == \
            [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_bell_polynomials_refuse_free_cumulants(self):
        with pytest.raises(ValueError, match="bell_polynomials expects "
                                             "classical cumulants"):
            bell_polynomials(CumulantSequence((1, 2), FREE))

    def test_poisson_type_collapse(self):
        c = CumulantSequence((Fraction(1),) + (Fraction(0),) * 7, CLASSICAL)
        m = classical_moments_from_cumulants(c)
        assert all(m.moment(n) == 1 for n in range(1, 9))
        back = classical_cumulants_from_moments(m)
        assert back.values == c.values

    def test_symbolic_inverse_degree_two(self):
        m = symbolic_moments(2)
        c = classical_cumulants_from_moments(m)
        assert poly_str(c.cumulant(2)) == "-m1^2 + m2"

    def test_round_trip_random(self):
        for seed in range(5):
            vals = random_values(8, seed)
            m = MomentSequence.of(vals)
            back = classical_moments_from_cumulants(
                classical_cumulants_from_moments(m))
            assert back.values == m.values


class TestFree:
    def test_free_moment_table(self):
        k = symbolic_cumulants(4, FREE)
        m = free_moments_from_cumulants(k)
        for n, text in FREE_TABLE.items():
            assert poly_str(m.moment(n)) == text

    def test_divergence_from_classical_at_four(self):
        c4 = classical_moments_from_cumulants(
            symbolic_cumulants(4, CLASSICAL)).moment(4)
        k4 = free_moments_from_cumulants(
            symbolic_cumulants(4, FREE)).moment(4)
        assert c4.terms[(("c2", 2),)] == 3
        assert k4.terms[(("k2", 2),)] == 2

    def test_flavors_agree_through_degree_three_shapewise(self):
        c = classical_moments_from_cumulants(symbolic_cumulants(3, CLASSICAL))
        k = free_moments_from_cumulants(symbolic_cumulants(3, FREE))
        for n in range(1, 4):
            assert poly_str(c.moment(n)).replace("c", "k") == \
                poly_str(k.moment(n))

    def test_recursion_example_degree_two(self):
        # m_2 = k_1 m_1 + k_2 m_0 m_0
        k = symbolic_cumulants(2, FREE)
        m = free_moments_from_cumulants(k)
        k1, k2 = Poly.var("k1"), Poly.var("k2")
        assert m.moment(2) == k1 * m.moment(1) + k2

    def test_semicircular(self):
        k = CumulantSequence(
            (Fraction(0), Fraction(1)) + (Fraction(0),) * 6, FREE)
        m = free_moments_from_cumulants(k)
        for n in range(1, 9):
            expected = catalan_number(n // 2) if n % 2 == 0 else 0
            assert m.moment(n) == expected
        back = free_cumulants_from_moments(m)
        assert back.values == k.values

    def test_symbolic_inverse_degree_two(self):
        m = symbolic_moments(2)
        k = free_cumulants_from_moments(m)
        assert poly_str(k.cumulant(2)) == "-m1^2 + m2"

    def test_round_trip_random(self):
        for seed in range(5):
            vals = random_values(8, seed + 100)
            k = CumulantSequence(vals, FREE)
            back = free_cumulants_from_moments(
                free_moments_from_cumulants(k))
            assert back.values == k.values

    def test_runs_neither_the_fixed_point_nor_extraction(self, monkeypatch):
        # both read every split of a^n; the transforms give their values
        # by the closed forms alone
        cumulants = [CumulantSequence(random_values(9, 7), FREE),
                     symbolic_cumulants(9, FREE)]
        moments = [MomentSequence.of(random_values(9, 8)),
                   symbolic_moments(9)]
        via_fixed_point = [tuple(transforms._free_moments_fixed_point(k))
                           for k in cumulants]
        via_extraction = []
        for m in moments:
            kappa = transforms._extracted_cumulants(
                ("a",), m.order, lambda w: m.moment(len(w)))
            via_extraction.append(
                tuple(kappa(("a",) * n) for n in range(1, m.order + 1)))

        def unreachable(*args):
            raise AssertionError("a transform ran a paper route")

        monkeypatch.setattr(transforms, "_free_moments_fixed_point",
                            unreachable)
        monkeypatch.setattr(transforms, "_extracted_cumulants", unreachable)
        assert [free_moments_from_cumulants(k).values[1:]
                for k in cumulants] == via_fixed_point
        assert [free_cumulants_from_moments(m).values
                for m in moments] == via_extraction


def block_type(blocks) -> tuple:
    return tuple(sorted(map(len, blocks), reverse=True))


def block_product(values_by_size, blocks):
    total = Fraction(1)
    for block in blocks:
        total = total * values_by_size(len(block))
    return total


def weights_by_type(n, weight) -> dict:
    return {lam: weight(n, lam)
            for lam in transforms._integer_partitions(n, n)}


class TestTypeWeights:
    """The closed-form weights behind the transforms' lattice sums, against
    the enumerations and the Möbius columns grouped by block type."""

    def test_integer_partitions(self):
        lams = list(transforms._integer_partitions(5, 5))
        assert lams == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                        (2, 1, 1, 1), (1, 1, 1, 1, 1)]
        assert [sum(1 for _ in transforms._integer_partitions(n, n))
                for n in range(1, 11)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    @pytest.mark.parametrize("lattice", ["set", "nc"])
    def test_counts_match_enumeration(self, lattice):
        enum, weight = {
            "set": (enumerate_set_partitions, transforms._set_count),
            "nc": (enumerate_nc_partitions, transforms._nc_count)}[lattice]
        for n in range(1, 11):
            counted = Counter(block_type(p.blocks) for p in enum(n))
            assert counted == weights_by_type(n, weight), (lattice, n)

    @pytest.mark.parametrize("lattice", ["set", "nc"])
    def test_moebius_totals_match_columns(self, lattice):
        weight = {"set": transforms._set_moebius,
                  "nc": transforms._nc_moebius}[lattice]
        for n in range(1, 8):
            totals = Counter()
            for blocks, mu in moebius_to_top(lattice, n).items():
                totals[block_type(blocks)] += mu
            assert totals == weights_by_type(n, weight), (lattice, n)

    def test_type_table_rows(self):
        for n in range(1, 13):
            table, _, _ = transforms._type_table(n)
            assert [row[0] for row in table] == list(
                transforms._integer_partitions(n, n))
            for lam, *weights in table:
                assert weights == [
                    transforms._set_count(n, lam), transforms._nc_count(n, lam),
                    transforms._set_moebius(n, lam),
                    transforms._nc_moebius(n, lam)]
            _, *columns = zip(*table)
            sets, ncs, set_mu, nc_mu = map(sum, columns)
            assert (sets, ncs) == (bell_number(n), catalan_number(n)), n
            assert set_mu == nc_mu == (1 if n == 1 else 0), n

    def test_type_sum_is_the_lattice_sum(self):
        # every degree of one call, each count against its enumeration and
        # each Möbius total against its Möbius column
        k = symbolic_cumulants(7, FREE)
        lattices = {
            transforms._set_count: lambda n: {
                p.blocks: 1 for p in enumerate_set_partitions(n)},
            transforms._nc_count: lambda n: {
                p.blocks: 1 for p in enumerate_nc_partitions(n)},
            transforms._set_moebius: lambda n: moebius_to_top("set", n),
            transforms._nc_moebius: lambda n: moebius_to_top("nc", n)}
        for weight, lattice in lattices.items():
            sums = transforms._type_sums(k.cumulant, 7, weight)
            assert len(sums) == 7, weight.__name__
            for n, got in enumerate(sums, 1):
                total = sum((w * block_product(k.cumulant, blocks)
                             for blocks, w in lattice(n).items()),
                            start=Poly())
                assert got == total, (weight.__name__, n)

    def test_type_sums_multiply_once_per_type(self):
        # a type of one part takes its value as it is, and every other type
        # one product, its first part times its tail's product
        class Counted:
            products = 0

            def __mul__(self, other):
                if isinstance(other, Counted):
                    Counted.products += 1
                return self

            __rmul__ = __mul__

            def __add__(self, other):
                return self

            __radd__ = __add__

        value = Counted()
        # p(n), the number of types of degree n
        types = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for order in range(1, 11):
            Counted.products = 0
            sums = transforms._type_sums(
                lambda size: value, order, transforms._nc_count)
            assert len(sums) == order
            assert Counted.products == sum(types[:order]) - order, order


class Tally:
    """A value that counts every product it takes part in, whatever the
    other operand, and records each other operand equal to 0 or 1."""

    products = 0
    constants: list = []

    def __mul__(self, other):
        Tally.products += 1
        if other in (0, 1):
            Tally.constants.append(other)
        return self

    __rmul__ = __mul__

    def __add__(self, other):
        return self

    __radd__ = __add__


class TestRecursionWork:
    """The recursions take no product by a constant term: F^0 = 1, the
    constant term 1 of each F^s, B_0 = 1 and C(n,0) = C(n,n) = 1."""

    @pytest.fixture(autouse=True)
    def reset(self, monkeypatch):
        monkeypatch.setattr(Tally, "products", 0)
        monkeypatch.setattr(Tally, "constants", [])

    @pytest.mark.parametrize("order", range(1, 11))
    def test_series_products(self, order):
        # degree n takes k_s [t^(n-s)] F^s for 0 < s < n (n - 1 products)
        # and sum_{0<j<d} m_j [t^(d-j)] F^(s-1) for each s > 1 with d = n - s
        # (C(n-2, 2) products), so C(N, 2) + C(N-1, 3) in all
        value = Tally()
        moments = transforms._free_moments_series(
            CumulantSequence._unchecked(values=(value,) * order, flavor=FREE))
        assert len(moments) == order
        assert Tally.constants == []
        assert Tally.products == comb(order, 2) + comb(order - 1, 3)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_bell_products(self, order):
        # B_{n+1} takes B_n c_1 and C(n,j) B_{n-j} c_{j+1} for 0 < j < n,
        # 2n - 1 products for n >= 1, so (N - 1)^2 in all
        value = Tally()
        b = bell_polynomials(
            CumulantSequence._unchecked(values=(value,) * order,
                                        flavor=CLASSICAL))
        assert len(b) == order + 1
        assert Tally.constants == []
        assert Tally.products == (order - 1) ** 2

    def test_tally_sees_a_product_by_a_constant(self):
        value = Tally()
        assert 1 * value is value and value * 0 is value
        assert Tally.products == 2 and Tally.constants == [1, 0]


class TestSizeCaps:
    @pytest.mark.parametrize("transform,seq", [
        (classical_moments_from_cumulants,
         lambda n: symbolic_cumulants(n, CLASSICAL)),
        (classical_cumulants_from_moments, symbolic_moments),
        (free_moments_from_cumulants, lambda n: symbolic_cumulants(n, FREE)),
        (free_cumulants_from_moments, symbolic_moments),
    ])
    def test_checked_before_any_work(self, transform, seq):
        # set cap 12, nc cap 14; an empty sequence is outside 1..cap too
        too_long = 13 if transform.__name__.startswith("classical") else 15
        for n in (0, too_long):
            with pytest.raises(SizeLimitError):
                transform(seq(n))

    @pytest.mark.parametrize("flavor,cap", [(CLASSICAL, 12), (FREE, 14)])
    def test_symbolic_order_below_one_names_that_order(self, flavor, cap):
        # the sequence built would be empty, and its order 0
        for build in (symbolic_cumulants, symbolic_moments):
            for n in (0, -2):
                with pytest.raises(SizeLimitError, match=(
                        rf"^n={n} outside allowed range 1\.\.{cap}$")):
                    build(n, flavor)

    def test_multivariate_table_order(self):
        with pytest.raises(SizeLimitError):
            generalized_free_cumulants(MultiMomentMap(("a",), 0, {}))

    def test_multivariate_first_block_terms(self, monkeypatch):
        # N words of order n need N * 2^(n-1) terms; ab at order 11 has
        # 4,094 words, and 4,094 * 2^10 is the largest under the cap
        class Reached(Exception):
            pass

        def solve(moment, words):
            raise Reached(len(words))

        monkeypatch.setattr(transforms, "_first_block_cumulants", solve)
        for alphabet, order in (("ab", 11), ("abc", 8), ("abcd", 7),
                                ("a", 14)):
            with pytest.raises(Reached):
                generalized_free_cumulants(moment_map(alphabet, order, len))
        for alphabet, order, words in (("ab", 12, 8190), ("abc", 9, 29523),
                                       ("abcd", 8, 87380)):
            with pytest.raises(SizeLimitError, match=(
                    rf"^a moment table of {words} words up to order {order} "
                    rf"needs {words} \* 2\^{order - 1} first-block terms, "
                    rf"more than 4194304$")):
                generalized_free_cumulants(moment_map(alphabet, order, len))


class TestKappaPowers:
    def kappa(self, w):
        return Fraction(sum(ord(x) for x in w), len(w))

    def test_one_block(self):
        w = Word(("a", "b", "c"))
        top = NonCrossingPartition.of([[1, 2, 3]])
        assert kappa_powers(top, w, self.kappa) == self.kappa(w)

    def test_singletons(self):
        w = Word(("a", "b", "c"))
        bottom = NonCrossingPartition.of([[1], [2], [3]])
        expect = Fraction(1)
        for x in w:
            expect *= self.kappa(Word((x,)))
        assert kappa_powers(bottom, w, self.kappa) == expect

    def test_nested_example(self):
        w = Word(("a", "b", "c"))
        shape = NonCrossingPartition.of([[1, 3], [2]])
        assert kappa_powers(shape, w, self.kappa) == \
            self.kappa(Word(("a", "c"))) * self.kappa(Word(("b",)))

    def test_size_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            kappa_powers(NonCrossingPartition.of([[1, 2]]),
                         Word(("a",)), self.kappa)


class TestGeneralizedCumulants:
    def phi_map(self, alphabet, order, seed=0):
        def phi(w):
            r = random.Random(f"{seed}:{'.'.join(w)}")
            return Fraction(r.randint(-9, 9), r.randint(1, 4))
        return moment_map(alphabet, order, phi)

    def test_degree_one_is_identity(self):
        phi = self.phi_map(("a", "b"), 2)
        r = generalized_free_cumulants(phi)
        for letter in ("a", "b"):
            assert r.value(Word((letter,))) == phi.value(Word((letter,)))

    def test_degree_two_formula(self):
        phi = self.phi_map(("a", "b"), 2)
        r = generalized_free_cumulants(phi)
        w = Word(("a", "b"))
        assert r.value(w) == phi.value(w) - \
            phi.value(Word(("a",))) * phi.value(Word(("b",)))

    def test_lattice_sum_recovers_moments(self):
        phi = self.phi_map(("a", "b"), 4, seed=7)
        r = generalized_free_cumulants(phi)
        for d in range(1, 5):
            for w in product(phi.alphabet, repeat=d):
                total = sum(
                    (kappa_powers(shape, w, r.value)
                     for shape in enumerate_nc_partitions(d)),
                    start=Fraction(0))
                assert total == phi.value(w)

    def test_lattice_solve_reads_subwords_from_its_words(self):
        # the solve reads each block restriction from the words it was
        # given; one left out is an internal KeyError, not a silent gap
        words = [w for n in range(1, 4) for w in product("ab", repeat=n)]
        solved = verify._lattice_cumulants(len, words)
        # m = length: kappa_1 = kappa_2 = 1, so kappa_3 = 3 - 4 terms of 1
        assert solved[("a", "b", "a")] == -1
        with pytest.raises(KeyError):
            verify._lattice_cumulants(len, [w for w in words
                                            if w != ("b", "a")])

    def test_first_block_recursion_reads_subwords_from_its_words(self):
        words = [w for n in range(1, 4) for w in product("ab", repeat=n)]
        solved = transforms._first_block_cumulants(len, words)
        # V = {1}, {1, 2}, {1, 3}: 3 - 1*2 - 1*1 - 1*1
        assert solved[("a", "b", "a")] == -1
        # a.b.a reads a.a, its w_V for V = {1, 3}
        with pytest.raises(KeyError):
            transforms._first_block_cumulants(len, [w for w in words
                                                    if w != ("a", "a")])

    @pytest.mark.parametrize("alphabet,order", [("ab", 8), ("abc", 6)])
    def test_first_block_recursion_equals_the_lattice_solve(self, alphabet,
                                                            order):
        rng = random.Random(f"first-block:{alphabet}")
        words = [w for n in range(1, order + 1)
                 for w in product(alphabet, repeat=n)]
        moments = {w: rng.randint(-10 ** 6, 10 ** 6) for w in words}
        assert (transforms._first_block_cumulants(moments.__getitem__, words)
                == verify._lattice_cumulants(moments.__getitem__, words))

    def test_reads_no_nc_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the transform read the NC lattice")

        phi = self.phi_map(("a", "b", "c"), 4, seed=3)
        expect = generalized_free_cumulants(phi).table
        for name in nc_hopf._LAYERS:
            module = getattr(nc_hopf, name)
            for fn in ("_lattice_cumulants", "enumerate_nc_partitions",
                       "_nc_shapes", "iter_partitions"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
        assert generalized_free_cumulants(phi).table == expect

    @pytest.mark.parametrize("alphabet,message", [
        (("a.b", "c"), r"^not a tuple of letters: \('a\.b', 'c'\)$"),
        (("a", "a"), r"^alphabet has a repeated letter: \('a', 'a'\)$"),
        (("",), r"^not a tuple of letters: \('',\)$"),
        ((1, 2), r"^not a tuple of letters: \(1, 2\)$"),
    ], ids=["separator", "repeat", "blank", "not-str"])
    def test_alphabet_is_checked_at_construction(self, alphabet, message):
        # the JSON reader's rule, applied before any route can run
        with pytest.raises(ValueError, match=message):
            MultiMomentMap(alphabet, 1, {(a,): 1 for a in alphabet})

    def test_incomplete_table_is_a_domain_error(self):
        # a word of the declared order left out of the table is bad input,
        # not an internal fault
        with pytest.raises(NcHopfError) as exc:
            generalized_free_cumulants(MultiMomentMap(("a",), 2, {("a",): 1}))
        assert str(exc.value) == "no moment recorded for word a.a"

    def test_single_letter_matches_univariate(self):
        vals = random_values(6, seed=55)
        m = MomentSequence.of(vals)
        table = moment_map(("a",), 6, lambda w: m.moment(len(w)))
        r = generalized_free_cumulants(table)
        k = free_cumulants_from_moments(m)
        for n in range(1, 7):
            assert r.value(Word(("a",) * n)) == k.cumulant(n)

    def test_multilinearity_in_a_slot(self):
        # phi linear in the first letter slot forces R linear there too
        base = self.phi_map(("a", "b"), 3, seed=9)
        lam = Fraction(3, 2)

        def combined(w):
            # treat letter 'b' in slot one as a + lam * a  (formally): scale
            first_is_b = w[0] == "b"
            if first_is_b:
                sub = Word(("a",) + w[1:])
                return lam * base.value(sub)
            return base.value(w)

        phi2 = moment_map(("a", "b"), 3, combined)
        r_base = generalized_free_cumulants(base)
        r2 = generalized_free_cumulants(phi2)
        for d in range(1, 4):
            for w in product(phi2.alphabet, repeat=d):
                if w[0] == "b" and "b" not in w[1:]:
                    sub = Word(("a",) + w[1:])
                    assert r2.value(w) == lam * r_base.value(sub)


class TestJson:
    def test_sequence_parsing(self):
        m = moment_sequence_from_json({"values": ["1/2", "-3"]})
        assert m.values == (Fraction(1), Fraction(1, 2), Fraction(-3))
        # the file lists m_1, m_2, ...: a leading 1 is m_1 = 1
        m1 = moment_sequence_from_json({"values": ["1", "1/2", "-3"]})
        assert m1.values == (1, 1, Fraction(1, 2), Fraction(-3))
        c = cumulant_sequence_from_json({"values": ["2", "0"]}, FREE)
        assert c.cumulant(1) == 2 and c.flavor == FREE

    def test_multi_map_parsing(self):
        data = {"alphabet": ["a", "b"],
                "values": {"a": "1", "b": "2", "a.a": "0", "a.b": "1/2",
                           "b.a": "-1", "b.b": "3"}}
        phi = multi_moment_map_from_json(data)
        assert phi.value(Word(("a", "b"))) == Fraction(1, 2)
        assert phi.order == 2

    @pytest.mark.parametrize("load,data", [
        (moment_sequence_from_json, {"value": ["1"]}),
        (lambda d: cumulant_sequence_from_json(d, FREE), {}),
        (multi_moment_map_from_json, {"values": {"a": "1"}}),
        (multi_moment_map_from_json, {"alphabet": ["a"]}),
    ])
    def test_missing_field_is_parse_error(self, load, data):
        # a domain error, not a stray KeyError
        from nc_hopf.errors import ParseError
        with pytest.raises(ParseError):
            load(data)

    @pytest.mark.parametrize("letter", [
        "", "a.b", "a b", "a|b", "a:b", "{a}", "(a)", "a⊗b", "a·b"])
    def test_multi_map_alphabet_holds_letters_only(self, letter):
        from nc_hopf.errors import ParseError
        data = {"alphabet": ["c", letter], "values": {"c": "1", letter: "2"}}
        with pytest.raises(ParseError, match="alphabet"):
            multi_moment_map_from_json(data)

    def test_multi_map_requires_total_table(self):
        from nc_hopf.errors import ParseError
        data = {"alphabet": ["a", "b"], "values": {"a": "1", "a.a": "2"}}
        with pytest.raises(ParseError):
            multi_moment_map_from_json(data)


# A rational as the transforms meet it: zeros, negatives, integers, small
# denominators and large coprime ones.
DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 9973, 10007)


def scaling_input(rng):
    if rng.random() < 0.15:
        return 0
    return exact(Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS)))


def as_given(solve, values, degrees=None):
    """``transforms._degree_scaled`` with no scaling: the routes run on the
    rationals themselves."""
    return solve(values)


def assert_exact(values):
    # an integral value is an int, any other a Fraction in lowest terms
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)


class TestDegreeScaling:
    @pytest.mark.parametrize("direction", ["k2m", "m2k", "c2m", "m2c"])
    def test_equals_the_routes_on_rationals(self, monkeypatch, direction):
        rng = random.Random(f"scaling:{direction}")
        moments_out = direction in ("k2m", "c2m")
        flavor = FREE if direction in ("k2m", "m2k") else CLASSICAL
        transform = {"k2m": free_moments_from_cumulants,
                     "m2k": free_cumulants_from_moments,
                     "c2m": classical_moments_from_cumulants,
                     "m2c": classical_cumulants_from_moments}[direction]
        for _ in range(250):
            values = tuple(scaling_input(rng)
                           for _ in range(rng.randint(1, 8)))
            seq = (CumulantSequence(values, flavor) if moments_out
                   else MomentSequence.of(values))
            out = transform(seq)
            with monkeypatch.context() as patch:
                patch.setattr(transforms, "_degree_scaled", as_given)
                expect = transform(seq)
            assert out.values == expect.values, values
            assert_exact(out.values)
            if moments_out:
                assert out.values[0] == 1 and type(out.values[0]) is int

    def test_multivariate_equals_the_routes_on_rationals(self, monkeypatch):
        rng = random.Random("scaling:multi")
        for _ in range(200):
            alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
            order = rng.randint(1, 4 if len(alphabet) < 3 else 3)
            phi = moment_map(alphabet, order, lambda w: scaling_input(rng))
            out = generalized_free_cumulants(phi)
            with monkeypatch.context() as patch:
                patch.setattr(transforms, "_degree_scaled", as_given)
                expect = generalized_free_cumulants(phi)
            assert out.table == expect.table
            assert_exact(out.table.values())

    @pytest.mark.parametrize("direction,route", [
        ("k2m", "_free_moments_series"),
        ("m2k", "_free_moments_series"),
        ("c2m", "bell_polynomials"),
        ("m2c", "bell_polynomials"),
        ("multi", "_first_block_cumulants"),
    ])
    def test_a_disagreeing_route_still_raises(self, monkeypatch, direction,
                                              route):
        # the comparison runs on the scaled integers, not around them
        real = getattr(transforms, route)
        seen = []

        def broken(*args):
            out = real(*args)
            if callable(out):  # letters -> kappa
                def off(letters):
                    seen.append(out(letters))
                    return seen[-1] + (len(letters) == 4)
                return off
            if isinstance(out, dict):  # letters -> kappa
                seen.extend(out.values())
                key = max(out, key=len)
                return {**out, key: out[key] + 1}
            seen.extend(out)
            return [*out[:-1], out[-1] + 1]

        monkeypatch.setattr(transforms, route, broken)
        values = (Fraction(1, 3), Fraction(-2, 7), 5, Fraction(1, 9973))
        with pytest.raises(InconsistencyError):
            if direction == "k2m":
                free_moments_from_cumulants(CumulantSequence(values, FREE))
            elif direction == "m2k":
                free_cumulants_from_moments(MomentSequence.of(values))
            elif direction == "c2m":
                classical_moments_from_cumulants(
                    CumulantSequence(values, CLASSICAL))
            elif direction == "m2c":
                classical_cumulants_from_moments(MomentSequence.of(values))
            else:
                generalized_free_cumulants(moment_map(
                    ("a", "b"), 3, lambda w: values[len(w)]))
        assert seen and all(type(v) is int for v in seen)


    @pytest.mark.parametrize("symbolic", [False, True],
                             ids=["rational", "symbolic"])
    @pytest.mark.parametrize("direction", ["c2m", "m2c", "k2m", "m2k"])
    def test_a_type_sum_off_by_one_raises(self, monkeypatch, direction,
                                          symbolic):
        # one weight row of degree 3 off by one: the recursion, which reads
        # no type table, holds the sum to it in every direction
        real = transforms._type_table

        def off(n):
            rows, *gathers = real(n)
            if n != 3:
                return (rows, *gathers)
            lam, *weights = rows[1]
            return ((rows[0], (lam, *[w + 1 for w in weights]), *rows[2:]),
                    *gathers)

        monkeypatch.setattr(transforms, "_type_table", off)
        flavor = CLASSICAL if "c" in direction else FREE
        values = (Fraction(1, 3), Fraction(-2, 7), 5, Fraction(1, 9973))
        if direction in ("c2m", "k2m"):
            seq = (symbolic_cumulants(4, flavor) if symbolic
                   else CumulantSequence(values, flavor))
            transform = (classical_moments_from_cumulants
                         if flavor == CLASSICAL
                         else free_moments_from_cumulants)
            expected = f"{flavor} moments: route '.*' and route '.*' disagree"
        else:
            seq = (symbolic_moments(4, flavor) if symbolic
                   else MomentSequence.of(values))
            transform = (classical_cumulants_from_moments
                         if flavor == CLASSICAL
                         else free_cumulants_from_moments)
            expected = f"{flavor} cumulants: Möbius inversion does not"
        with pytest.raises(InconsistencyError, match=expected):
            transform(seq)


class TestFreedByRefcount:
    """With the cyclic collector off, what a transform builds is freed by
    reference counting alone: no closure cycle holds a functional, a value
    cache or the lattice memo."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_lattice_solve_frees_its_moment_function(self):
        class Moments:
            def __call__(self, letters):
                return len(letters)

        moment = Moments()
        ref = weakref.ref(moment)
        # every block restriction of a.b.a.b is a word over {a, b} of
        # length at most 4
        words = [w for n in range(1, 5) for w in product("ab", repeat=n)]
        solved = verify._lattice_cumulants(moment, words)
        assert solved[("a", "b")] == 2 - 1
        del moment, solved
        assert ref() is None

    @pytest.mark.parametrize("route", [
        lambda: free_moments_from_cumulants(
            CumulantSequence((1, Fraction(1, 2), 3, -2, 5), FREE)),
        lambda: free_cumulants_from_moments(MomentSequence.of((1, 2, 5, 14))),
        lambda: classical_cumulants_from_moments(
            MomentSequence.of((1, 2, 5, 14))),
        lambda: free_moments_from_cumulants(symbolic_cumulants(5, FREE)),
        lambda: generalized_free_cumulants(moment_map(
            ("a", "b"), 3, lambda w: len(w) + 1)),
    ], ids=["k2m", "m2k", "m2c", "k2m-symbolic", "multi-m2k"])
    def test_routes_leave_no_cyclic_garbage(self, route):
        route()
        assert gc.collect() == 0
