import gc
import weakref
from fractions import Fraction

import pytest

from nc_hopf.errors import AlgebraMismatchError, TruncationError
from nc_hopf.functionals import (
    NC,
    WORDS,
    Algebra,
    Character,
    InfinitesimalCharacter,
    LinearFunctional,
    augmentation,
    convolve,
    exp_prec,
    extract_infinitesimal,
    half_convolve,
    pullback_sp,
    random_functional,
    random_infinitesimal,
    solve_left_fixed_point,
    standard_section,
)
from nc_hopf.partitions import NonCrossingPartition, catalan_number
from nc_hopf.tensor import UNIT, DecoratedNC, Word, delta_bar

A1 = Algebra(WORDS, ("a",))
AB = Algebra(WORDS, ("a", "b"))


def aw(n):
    return (Word(("a",) * n),)


def vanishes_on_products(f) -> bool:
    """Whether f kills the unit and every bar word of two or more atoms
    within its truncation."""
    return f.unit_value == 0 and all(
        f(b) == 0 for d in range(2, f.truncation + 1)
        for b in f.algebra.barwords(d) if len(b) > 1)


def is_character(f) -> bool:
    """Whether f(1) = 1 and f(a|b) = f(a) f(b) on every pair of basis bar
    words a, b within its truncation."""
    n = f.truncation
    by_degree = [f.algebra.barwords(d) for d in range(n)]
    return f.unit_value == 1 and all(
        f(a + b) == f(a) * f(b)
        for da in range(1, n) for db in range(1, n - da + 1)
        for a in by_degree[da] for b in by_degree[db])


def unpruned_fixed_point(kappa):
    """Phi = e + kappa ≺ Phi solved against every term of the left half
    coproduct of the whole bar word: the definition, without using that
    kappa vanishes on products."""
    box = []

    def ev(b):
        total = Fraction(0)
        for (left, right), c in delta_bar(b, "left+").items():
            pr = box[0].unit_value if right == UNIT else box[0](right)
            total += c * kappa(left) * pr
        return total

    box.append(Character(kappa.algebra, kappa.truncation, ev,
                         unit_value=Fraction(1), name="unpruned"))
    return box[0]


def recursive_barwords(algebra, degree):
    """The bar words of a degree by the first atom's degree, recursing into
    the rest: the definition, rebuilt at every call."""
    if degree == 0:
        return [UNIT]
    return [(atom,) + tail for k in range(1, degree + 1)
            for atom in algebra.atoms(k)
            for tail in recursive_barwords(algebra, degree - k)]


def record_evaluations(f):
    """The list of bar words that f's eval_basis is called on, from now."""
    seen = []
    inner = f._eval

    def ev(b):
        seen.append(b)
        return inner(b)

    f._eval = ev
    return seen


class TestAlgebraBasis:
    def test_atom_counts(self):
        assert len(AB.atoms(3)) == 8
        nc2 = Algebra(NC, ("a", "b"))
        assert len(nc2.atoms(3)) == catalan_number(3) * 8

    def test_barword_counts_one_letter(self):
        # compositions of n: 2^(n-1) bar words of degree n
        for n in range(1, 6):
            assert len(A1.barwords(n)) == 2 ** (n - 1)

    def test_unit_basis(self):
        assert A1.barwords(0) == [UNIT]

    @pytest.mark.parametrize("kind", [WORDS, NC])
    def test_barwords_built_degree_by_degree(self, kind, monkeypatch):
        # one atoms() call per degree, and the lists of the recursion in its
        # order
        algebra = Algebra(kind, ("a",))
        expected = recursive_barwords(algebra, 10)
        calls = []
        atoms = Algebra.atoms

        def counted(self, degree):
            calls.append(degree)
            return atoms(self, degree)

        monkeypatch.setattr(Algebra, "atoms", counted)
        assert algebra.barwords(10) == expected
        assert calls == list(range(1, 11))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown algebra kind: 'tree'"):
            Algebra("tree", ("a",))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Algebra(WORDS, ())

    @pytest.mark.parametrize("alphabet", [
        ("a.b", "c"), ("a", ""), ("a b",), ("a", 1), ("a", "b", "a")])
    def test_alphabet_of_distinct_letters_only(self, alphabet):
        # ("a.b",) would print as the two-letter word a.b, and a random
        # functional, seeded by that text, would give both atoms one value
        with pytest.raises(ValueError):
            Algebra(WORDS, alphabet)

    def test_alphabet_stored_as_a_tuple(self):
        assert Algebra(NC, ["a", "b"]).alphabet == ("a", "b")
        assert Algebra(WORDS, ["a", "b"]) == AB


class TestEvaluation:
    def test_truncation_enforced(self):
        f = random_functional(A1, 3, seed=1)
        f(aw(3))
        with pytest.raises(TruncationError):
            f(aw(4))

    def test_deterministic_and_cached(self):
        f = random_functional(AB, 4, seed=9)
        g = random_functional(AB, 4, seed=9)
        b = (Word(("a", "b")),)
        assert f(b) == g(b)
        assert f(b) == f(b)

    def test_unit_value(self):
        assert augmentation(A1, 4)(UNIT) == 1
        assert random_functional(A1, 4, seed=2)(UNIT) == 0

    def test_truncation_raised_through_the_cache(self):
        # a miss above the truncation raises, from __call__ and from
        # on_lincomb, also after values below it have been cached
        f = random_functional(A1, 3, seed=6)
        assert f.on_lincomb({aw(1): 2, aw(3): 1, UNIT: 5}) is not None
        with pytest.raises(TruncationError):
            f(aw(4))
        with pytest.raises(TruncationError):
            f.on_lincomb({aw(1): 1, (Word(("a",)), Word(("a",) * 3)): 1})

    def test_on_lincomb_linear(self):
        f = random_functional(A1, 4, seed=3)
        t = {aw(1): Fraction(2), aw(2): Fraction(-1, 3)}
        assert f.on_lincomb(t) == 2 * f(aw(1)) - Fraction(1, 3) * f(aw(2))


class TestCharacters:
    def test_from_atoms_multiplicative(self):
        phi = Character.from_atoms(A1, 6, lambda w: Fraction(len(w)))
        assert phi((Word(("a",) * 2), Word(("a",) * 3))) == 6
        assert is_character(phi)

    def test_infinitesimal_kills_products(self):
        kappa = InfinitesimalCharacter.from_atoms(
            A1, 6, lambda w: Fraction(1))
        assert kappa(aw(2)) == 1
        assert kappa((Word(("a",)), Word(("a",)))) == 0
        assert vanishes_on_products(kappa)

    def test_check_character_flags_violation(self):
        # is_character tells a non-character apart, at the unit and on a
        # product: f(a|a) = 2, but f(a) = 1
        assert not is_character(random_functional(A1, 4, seed=5))
        assert not is_character(Character(A1, 4, len, unit_value=1))


class TestConvolution:
    def test_algebra_mismatch(self):
        f = random_functional(A1, 4, seed=1)
        g = random_functional(AB, 4, seed=1)
        with pytest.raises(AlgebraMismatchError):
            convolve(f, g)
        h = random_functional(A1, 5, seed=1)
        with pytest.raises(AlgebraMismatchError):
            half_convolve(f, h, "left")

    def test_half_convolution_side_is_left_or_right(self):
        f = random_functional(A1, 4, seed=1)
        with pytest.raises(ValueError,
                           match="side must be 'left' or 'right', not 'up'"):
            half_convolve(f, f, "up")

    def test_half_sum_is_convolution(self):
        f = random_functional(AB, 4, seed=11)
        g = random_functional(AB, 4, seed=12)
        total = convolve(f, g)
        left = half_convolve(f, g, "left")
        right = half_convolve(f, g, "right")
        for d in range(1, 5):
            for b in AB.barwords(d)[:10]:
                assert total(b) == left(b) + right(b)

    def test_unit_laws(self):
        f = random_functional(AB, 4, seed=13)
        e = augmentation(AB, 4)
        for d in range(1, 5):
            for b in AB.barwords(d)[:10]:
                assert half_convolve(f, e, "left")(b) == f(b)
                assert half_convolve(e, f, "right")(b) == f(b)
                assert half_convolve(e, f, "left")(b) == 0
                assert half_convolve(f, e, "right")(b) == 0

    def test_convolution_is_associative_on_mixed_values(self):
        # the dual of coassociativity; g takes Fraction values, f and h int
        f = random_functional(AB, 4, seed=15)
        base = random_functional(AB, 4, seed=16)
        g = InfinitesimalCharacter.from_atoms(
            AB, 4, lambda atom: Fraction(base((atom,)), 7))
        h = random_functional(AB, 4, seed=17)
        lhs, rhs = convolve(convolve(f, g), h), convolve(f, convolve(g, h))
        bars = [b for d in range(1, 5) for b in AB.barwords(d)]
        assert all(type(f(b)) is int for b in bars)
        assert any(type(g(b)) is Fraction for b in bars)
        for b in bars:
            assert lhs(b) == rhs(b), b

    def test_convolution_unit(self):
        f = random_functional(AB, 4, seed=14)
        e = augmentation(AB, 4)
        for b in AB.barwords(3)[:10]:
            assert convolve(f, e)(b) == f(b)
            assert convolve(e, f)(b) == f(b)


class TestFixedPoint:
    def test_matches_exponential(self):
        kappa = random_infinitesimal(A1, 6, seed=21)
        phi = solve_left_fixed_point(kappa)
        psi = exp_prec(kappa)
        for d in range(7):
            for b in A1.barwords(d):
                assert phi(b) == psi(b)

    def test_fixed_point_equation_holds(self):
        kappa = random_infinitesimal(A1, 6, seed=22)
        phi = solve_left_fixed_point(kappa)
        rhs = half_convolve(kappa, phi, "left")
        for d in range(1, 7):
            for b in A1.barwords(d):
                assert phi(b) == rhs(b)

    def test_result_is_character(self):
        kappa = random_infinitesimal(AB, 4, seed=23)
        assert is_character(solve_left_fixed_point(kappa))

    def test_extraction_inverts(self):
        kappa = random_infinitesimal(AB, 4, seed=24)
        phi = solve_left_fixed_point(kappa)
        back = extract_infinitesimal(phi)
        for d in range(1, 5):
            for atom in AB.atoms(d):
                assert back((atom,)) == kappa((atom,))

    def test_extraction_needs_a_unital_phi(self):
        # the unit value is 0: no kappa solves Phi = e + kappa ≺ Phi
        phi = random_functional(A1, 4, seed=3)
        seen = record_evaluations(phi)
        with pytest.raises(ValueError, match="Phi"):
            extract_infinitesimal(phi)
        assert seen == []

    def test_extraction_gives_0_off_the_standard_carrier(self):
        # Phi reads an atom only through its half, whose legs are
        # standardized, so Phi = e + kappa ≺ Phi leaves kappa free on an
        # atom off its standard carrier, and extraction gives it 0
        algebra = Algebra(NC, ("a", "b"))
        kappa = random_infinitesimal(algebra, 3, seed=26)
        back = extract_infinitesimal(solve_left_fixed_point(kappa))
        for blocks in (((2, 3),), ((2, 3), (4,)), ((2, 4), (3,))):
            shape = NonCrossingPartition(blocks)
            off = DecoratedNC(shape, ("a", "b", "a")[:shape.size])
            assert kappa((off,)) != 0 and back((off,)) == 0
        std = (DecoratedNC(NonCrossingPartition(((1, 2),)), ("a", "b")),)
        assert back(std) == kappa(std)

    def test_extraction_caches_nothing_when_it_raises(self):
        # Phi(b.a) fails once, while abab's extraction pairs kappa(a.b)
        # with it: kappa keeps no value of abab, and a retry is right
        def moment(atom):
            return Fraction(len(atom) ** 2 + atom.count("a"),
                            1 + atom.count("b"))

        failures = [("b", "a")]

        def flaky(atom):
            if atom in failures:
                failures.remove(atom)
                raise RuntimeError("transient")
            return moment(atom)

        back = extract_infinitesimal(Character.from_atoms(AB, 4, flaky))
        b = (("a", "b", "a", "b"),)
        with pytest.raises(RuntimeError):
            back(b)
        assert failures == [] and b not in back._cache
        expected = extract_infinitesimal(Character.from_atoms(AB, 4, moment))
        assert back(b) == expected(b)
        for d in range(1, 5):
            for atom in AB.atoms(d):
                assert back((atom,)) == expected((atom,))

    @pytest.mark.parametrize("kind,degree", [(WORDS, 5), (NC, 4)])
    def test_multi_atom_bar_words_match_definition(self, kind, degree):
        algebra = Algebra(kind, ("a", "b"))
        kappa = random_infinitesimal(algebra, degree, seed=26)
        phi = solve_left_fixed_point(kappa)
        oracle = unpruned_fixed_point(kappa)
        psi = exp_prec(kappa)
        bars = [b for d in range(2, degree + 1) for b in algebra.barwords(d)
                if len(b) >= 2]
        if kind == NC:
            # an atom on the carrier {2,3}: its coproduct standardizes it
            off = DecoratedNC(NonCrossingPartition(((2, 3),)))
            std = DecoratedNC(NonCrossingPartition(((1, 2),)))
            bars += [(off,), (std, off), (off, std), (off, off)]
            # kappa tells the two apart; Phi only ever pairs kappa with
            # standardized legs
            assert kappa((off,)) != kappa((std,))
            assert phi((std, off)) == phi((std, std))
        assert len(bars) > 50
        for b in bars:
            assert phi(b) == oracle(b) == psi(b), b
        assert is_character(phi)

    def test_non_infinitesimal_rejected(self):
        f = random_functional(A1, 4, seed=25)
        with pytest.raises(ValueError):
            solve_left_fixed_point(f)

    @pytest.mark.parametrize("solve", [solve_left_fixed_point, exp_prec],
                             ids=lambda solve: solve.__name__)
    def test_only_an_infinitesimal_character_is_taken(self, solve):
        # a plain functional is refused by its class, even one that kills
        # the unit and every product
        f = LinearFunctional(A1, 4, lambda b: 1 if len(b) == 1 else 0)
        assert vanishes_on_products(f)
        with pytest.raises(ValueError) as exc:
            solve(f)
        assert str(exc.value) == (
            "expected an InfinitesimalCharacter, not LinearFunctional")

    def test_moment_values_one_letter(self):
        # with kappa supported on single atoms the character values on a^n
        # satisfy the free moment-cumulant recursion; check n=1..3 by hand
        k = {1: Fraction(2), 2: Fraction(-1), 3: Fraction(5), 4: Fraction(0)}
        kappa = InfinitesimalCharacter.from_atoms(
            A1, 4, lambda w: k[len(w)])
        phi = solve_left_fixed_point(kappa)
        m1 = k[1]
        m2 = k[1] ** 2 + k[2]
        m3 = k[1] ** 3 + 3 * k[1] * k[2] + k[3]
        assert phi(aw(1)) == m1
        assert phi(aw(2)) == m2
        assert phi(aw(3)) == m3


class TestSplittingPullback:
    def test_preserves_character_class(self):
        nc_alg = Algebra(NC, ("a", "b"))
        phi = Character.from_atoms(nc_alg, 4, lambda x: Fraction(1))
        kappa = random_infinitesimal(nc_alg, 4, seed=31)
        assert isinstance(pullback_sp(phi), Character)
        assert isinstance(pullback_sp(kappa), InfinitesimalCharacter)

    def test_values_sum_over_shapes(self):
        nc_alg = Algebra(NC, ("a",))
        psi = Character.from_atoms(nc_alg, 4, lambda x: Fraction(1))
        f = pullback_sp(psi)
        # a word of length n maps to the sum over NC_n, each valued 1
        for n in range(1, 5):
            assert f(aw(n)) == catalan_number(n)

    def test_requires_nc_source(self):
        f = random_functional(AB, 4, seed=32)
        with pytest.raises(AlgebraMismatchError):
            pullback_sp(f)


class TestStandardSection:
    def test_supported_on_one_block_shapes(self):
        nc_alg = Algebra(NC, ("a", "b"))
        sd = standard_section(lambda w: Fraction(len(w)), nc_alg, 5)
        from nc_hopf.tensor import DecoratedNC
        from nc_hopf.partitions import NonCrossingPartition
        one_block = DecoratedNC(NonCrossingPartition.of([[1, 2]]),
                                Word(("a", "b")))
        two_blocks = DecoratedNC(NonCrossingPartition.of([[1], [2]]),
                                 Word(("a", "b")))
        assert sd((one_block,)) == 2
        assert sd((two_blocks,)) == 0
        assert vanishes_on_products(sd)

    def test_requires_nc_target(self):
        with pytest.raises(AlgebraMismatchError):
            standard_section(lambda w: Fraction(0), AB, 4)


class TestMultiplicativeExtension:
    def test_moment_table_on_bars(self):
        m = {1: Fraction(1, 2), 2: Fraction(3)}
        phi = Character.from_atoms(A1, 3, lambda w: m[len(w)])
        assert phi((Word(("a",) * 2), Word(("a",)))) == Fraction(3, 2)


class TestEvaluatedOnce:
    """Pairings read known values from the cache: each functional's
    eval_basis runs once per distinct bar word, and never on the unit."""

    @staticmethod
    def assert_once(*seen):
        for words in seen:
            assert words and UNIT not in words
            assert len(set(words)) == len(words)

    def test_convolution(self):
        f = random_functional(AB, 4, seed=31)
        g = random_functional(AB, 4, seed=32)
        products = [convolve(f, g), half_convolve(f, g, "left"),
                    half_convolve(f, g, "right")]
        seen = [record_evaluations(h) for h in (f, g, *products)]
        for h in products:
            for d in range(5):
                for b in AB.barwords(d):
                    h(b)
        self.assert_once(*seen)

    @pytest.mark.parametrize("kind,degree", [(WORDS, 5), (NC, 4)])
    def test_fixed_point_and_extraction(self, kind, degree):
        algebra = Algebra(kind, ("a", "b"))
        kappa = random_infinitesimal(algebra, degree, seed=33)
        phi = solve_left_fixed_point(kappa)
        back = extract_infinitesimal(phi)
        seen = [record_evaluations(f) for f in (kappa, phi, back)]
        for d in range(degree + 1):
            for b in algebra.barwords(d):
                assert back(b) == kappa(b)
                phi(b)
        self.assert_once(*seen)


class TestFreedByRefcount:
    """With the cyclic collector off, a functional from the fixed point or
    the extraction dies with its last reference: no closure cycle holds it
    or its value cache."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_fixed_point(self):
        phi = solve_left_fixed_point(random_infinitesimal(AB, 4, seed=4))
        assert phi((Word(("a", "b", "a", "b")),)) is not None
        ref = weakref.ref(phi)
        del phi
        assert ref() is None

    def test_extraction(self):
        phi = Character.from_atoms(AB, 4, lambda w: len(w) + 1)
        kappa = extract_infinitesimal(phi)
        assert kappa((Word(("a", "b", "b")),)) is not None
        ref, phi_ref = weakref.ref(kappa), weakref.ref(phi)
        del kappa, phi
        assert ref() is None and phi_ref() is None
