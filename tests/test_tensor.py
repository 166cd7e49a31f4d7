import io
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from nc_hopf.cli import main
from nc_hopf.errors import AlgebraMismatchError, ParseError, SizeLimitError
from nc_hopf.partitions import (
    NonCrossingPartition,
    admissible_splits,
    enumerate_nc_partitions,
    split_table,
    standardize,
)
from nc_hopf.tensor import (
    UNIT,
    DecoratedNC,
    Word,
    add_into,
    barword_degree,
    barword_text,
    delta_bar,
    delta_nc,
    delta_nc_halves,
    delta_word,
    delta_word_halves,
    lincomb_sum,
    parse_atom,
    parse_word,
    sp,
    tensor_product,
    tensor_text,
)
from nc_hopf.trees import hierarchy_tree, tree_coproduct

ONE = Fraction(1)


def w(text):
    return Word(tuple(text))


def nc(text, word=None):
    from nc_hopf.partitions import parse_partition
    shape = parse_partition(text)
    return DecoratedNC(NonCrossingPartition(shape.blocks),
                       Word(tuple(word)) if word else None)


class TestWords:
    def test_degree_and_subword(self):
        # a word is its letter tuple: its degree is its length and a
        # subword is read off by position
        word = w("abc")
        assert barword_degree((word,)) == len(word) == 3
        assert word[::2] == w("ac") and word[1:] == w("bc")

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            Word(())

    def test_delta_of_single_letter(self):
        word = w("a")
        assert delta_word(word) == {
            ((word,), ()): ONE,
            ((), (word,)): ONE,
        }

    def test_delta_of_two_letters_by_hand(self):
        # subsets of {1,2}: {} -> 1 (x) ab ; {1} -> a (x) b ; {2} -> b (x) a ;
        # {1,2} -> ab (x) 1
        word = w("ab")
        expected = {
            ((), (word,)): ONE,
            ((w("a"),), (w("b"),)): ONE,
            ((w("b"),), (w("a"),)): ONE,
            ((word,), ()): ONE,
        }
        assert delta_word(word) == expected

    def test_delta_bar_term_for_middle_subset(self):
        # keeping only position 2 of abc splits the complement in two parts
        terms = delta_word(w("abc"))
        assert terms[((w("b"),), (w("a"), w("c")))] == ONE

    def test_halves_sum_to_delta(self):
        for word in (w("a"), w("ab"), w("abc"), w("aabb")):
            left, right = delta_word_halves(word)
            assert lincomb_sum(left, right) == delta_word(word)

    def test_left_half_keeps_first_position(self):
        left, right = delta_word_halves(w("ab"))
        assert ((w("ab"),), ()) in left
        assert ((w("a"),), (w("b"),)) in left
        assert ((), (w("ab"),)) in right
        assert ((w("b"),), (w("a"),)) in right


def subset_halves(word):
    """Oracle for delta_word_halves, from the definition: for each subset S
    of positions, a_S (x) the bar word of the maximal runs of positions
    outside S, in the left half iff position 1 is in S."""
    n = len(word)

    def subword(positions):
        return tuple(word[i - 1] for i in positions)

    halves = (Counter(), Counter())  # right, left
    for k in range(n + 1):
        for s in combinations(range(1, n + 1), k):
            left = (subword(s),) if s else ()
            runs, run = [], []
            for i in range(1, n + 1):
                if i in s:
                    if run:
                        runs.append(subword(run))
                    run = []
                else:
                    run.append(i)
            if run:
                runs.append(subword(run))
            halves[1 in s][(left, tuple(runs))] += 1
    return dict(halves[1]), dict(halves[0])


class TestCoproductLayer:
    def test_word_halves_match_subset_definition(self):
        for alphabet, max_n in (("ab", 8), ("abc", 6)):
            for n in range(1, max_n + 1):
                for letters in product(alphabet, repeat=n):
                    word = Word(letters)
                    assert delta_word_halves(word) == subset_halves(word)

    def test_clear_caches_empties_the_length_table(self):
        # a word's halves are read off the split table of the singleton
        # partition of its length
        import nc_hopf
        halves = nc_hopf.tensor._short_word_halves
        delta_word(w("abc"))
        assert halves.cache_info().currsize
        assert split_table.cache_info().currsize
        nc_hopf.clear_caches()
        assert halves.cache_info().currsize == 0
        assert split_table.cache_info().currsize == 0

    def test_equal_left_legs_are_one_object(self):
        # in both halves, equal left legs are one object, and so are equal
        # runs, whatever positions they come from
        for word in (w("abab"), w("aaaa"), w("abcab"), w("abcde")):
            legs, runs = {}, {}
            for half in delta_word_halves(word):
                for left, right in half:
                    assert legs.setdefault(left, left) is left
                    for atom in right:
                        assert runs.setdefault(atom, atom) is atom

    def test_word_coproduct_keys_are_untracked_by_the_collector(self):
        # a word is a plain tuple of strings, so every key, leg, run tuple
        # and atom of its coproduct is one the cyclic collector untracks
        import gc
        import nc_hopf
        nc_hopf.clear_caches()
        word = Word(("a", "b", "a", "c", "b"))
        results = [*delta_word_halves(word), delta_word(word),
                   delta_bar((word,), "left+")]
        # a collection untracks a tuple only if its items already are, and
        # it meets a container before its items: one collection per level
        # of nesting (atoms, then legs and run tuples, then keys)
        for _ in range(3):
            gc.collect()
        tracked = []
        for result in results:
            for key in result:
                left, right = key
                for item in (key, left, right, *left, *right):
                    if gc.is_tracked(item):
                        tracked.append(item)
        assert tracked == []

    def test_structural_coefficients_are_int(self):
        values = []
        for word in (w("a"), w("aab"), w("abab")):
            values += delta_word(word).values()
        values += sp((w("abab"), w("aa"))).values()
        for n in range(1, 6):
            for shape in enumerate_nc_partitions(n):
                values += delta_nc(DecoratedNC(shape)).values()
                values += tree_coproduct(hierarchy_tree(shape)).values()
        values += delta_nc(nc("{1,2}{3}{4}", "abab")).values()
        assert {type(v) for v in values} == {int}
        assert 2 in values  # a multiplicity, not only units


def split_halves(x):
    """Oracle for delta_nc_halves, from the definition: each admissible
    split of x's shape on its own carrier, every part restricted and then
    standardized, its decoration the letters of x at the ranks of the
    part's carrier; in the left half iff the first carrier element lies in
    a Q-block."""
    carrier = x.shape.carrier
    rank = {e: i for i, e in enumerate(carrier)}

    def restricted(part):
        word = None
        if x.word is not None:
            word = Word(tuple(x.word[rank[e]] for e in part.carrier))
        return DecoratedNC(standardize(part), word)

    halves = (Counter(), Counter())  # right, left
    for split in admissible_splits(x.shape):
        q = split.q_part
        left = (restricted(q),) if q.blocks else ()
        right = tuple(restricted(c) for c in split.components)
        halves[carrier[0] in q.carrier][(left, right)] += 1
    return dict(halves[1]), dict(halves[0])


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("extra,filename", [
    ((), "coproduct_word_abacb.txt"),
    (("--json",), "coproduct_word_abacb.json"),
])
def test_word_coproduct_golden(extra, filename):
    # the --json rows are sorted by the text of each key with every word
    # written Word(letters=...), so these files pin that order
    out = io.StringIO()
    assert main(["coproduct", "word", "a.b.a.c.b", *extra], out=out) == 0
    assert out.getvalue() == (GOLDEN / filename).read_text()


@pytest.mark.parametrize("subject,extra,filename", [
    ("a", (), "coproduct_word_a.txt"),
    ("a", ("--json",), "coproduct_word_a.json"),
    ("a.a.b.a", (), "coproduct_word_aaba.txt"),
    ("a.a.b.a", ("--json",), "coproduct_word_aaba.json"),
])
def test_one_letter_atoms_coproduct_golden(subject, extra, filename):
    # one-letter atoms and unit legs: the keys whose text and row order
    # turn on telling a word from a bar word
    out = io.StringIO()
    assert main(["coproduct", "word", subject, *extra], out=out) == 0
    assert out.getvalue() == (GOLDEN / filename).read_text()


class TestNcCoproduct:
    def test_decorated_halves_match_split_definition(self):
        # every shape with n <= 7 under a distinct-letter word, and per n
        # one shape moved to the carrier {3, 5, 7, ...}
        for n in range(1, 8):
            word = Word(tuple("abcdefg"[:n]))
            shapes = enumerate_nc_partitions(n)
            middle = shapes[len(shapes) // 2]
            moved = NonCrossingPartition(tuple(
                tuple(2 * e + 1 for e in block) for block in middle.blocks))
            for shape in (*shapes, moved):
                x = DecoratedNC(shape, word)
                left, right = split_halves(x)
                assert delta_nc_halves(x) == (left, right)
                assert delta_nc(x) == lincomb_sum(left, right)

    def test_decorations_are_gathered_at_the_ranks(self):
        # every shape with n <= 7 under a distinct-letter word: each atom's
        # decoration is the word read at its part's ranks.  Equal legs are
        # one object within each half; under a one-letter word, distinct
        # splits have equal legs
        for n, shape in ((n, shape) for n in range(1, 8)
                         for shape in enumerate_nc_partitions(n)):
            for word in (Word("abcdefg"[:n]), Word("a" * n)):
                parts, splits = split_table(shape)
                atoms = [DecoratedNC(part, tuple([word[r] for r in ranks]))
                         for _, part, ranks in parts]
                halves = (Counter(), Counter())  # right, left
                for in_q, q, comps in splits:
                    leg = (atoms[q],) if q is not None else UNIT
                    halves[in_q][leg, tuple(atoms[i] for i in comps)] += 1
                left, right = delta_nc_halves(DecoratedNC(shape, word))
                assert (left, right) == (dict(halves[1]), dict(halves[0]))
                for half in (left, right):
                    legs = {}
                    for leg, _ in half:
                        assert legs.setdefault(leg, leg) is leg

    def test_nested_pair_golden(self):
        text = tensor_text(delta_nc(nc("{1,4}{2,3}")))
        assert text == ("1 ⊗ {1,4}{2,3} + {1,2} ⊗ {1,2} + {1,4}{2,3} ⊗ 1")

    def test_five_element_golden(self):
        text = tensor_text(delta_nc(nc("{1,5}{2}{3,4}")))
        assert text == ("1 ⊗ {1,5}{2}{3,4} + {1,2} ⊗ {1}{2,3} + "
                        "{1,3}{2} ⊗ {1,2} + {1,4}{2,3} ⊗ {1} + "
                        "{1,5}{2}{3,4} ⊗ 1")

    def test_bar_and_multiplicity_golden(self):
        text = tensor_text(delta_nc(nc("{1,2}{3}{4}")))
        assert text == ("1 ⊗ {1,2}{3}{4} + {1,2} ⊗ {1}{2} + "
                        "2·{1,2}{3} ⊗ {1} + {1,2}{3}{4} ⊗ 1 + "
                        "{1} ⊗ {1,2}{3} + {1} ⊗ {1,2}|{1} + "
                        "{1}{2} ⊗ {1,2}")

    def test_decoration_restricted_along_splits(self):
        x = nc("{1,4}{2,3}", "abcd")
        terms = delta_nc(x)
        key = ((nc("{1,2}", "ad"),), (nc("{1,2}", "bc"),))
        assert terms[key] == ONE

    def test_halves_sum_to_delta(self):
        for n in range(1, 5):
            for shape in enumerate_nc_partitions(n):
                x = DecoratedNC(shape)
                left, right = delta_nc_halves(x)
                assert lincomb_sum(left, right) == delta_nc(x)

    def test_half_split_follows_first_element(self):
        # selecting the outer block keeps element 1, so that term is in the
        # left half; selecting only the inner block leaves 1 behind
        left, right = delta_nc_halves(nc("{1,4}{2,3}"))
        outer = ((nc("{1,2}"),), (nc("{1,2}"),))
        assert outer in left
        assert ((), (nc("{1,4}{2,3}"),)) in right

    def test_decoration_length_checked(self):
        with pytest.raises(ValueError):
            nc("{1,2}", "abc")

    @pytest.mark.parametrize("atom,standard", [
        ("{2,3}:a.b", "{1,2}:a.b"),
        ("{2,5}{3,4}:a.b.c.d", "{1,4}{2,3}:a.b.c.d"),
    ])
    def test_decoration_read_by_rank_on_other_carriers(self, atom, standard):
        x, y = parse_atom(atom), parse_atom(standard)
        assert delta_nc(x) == delta_nc(y)
        assert delta_nc_halves(x) == delta_nc_halves(y)


class TestBarWords:
    def test_degree_and_text(self):
        b = (w("ab"), w("c"))
        assert barword_degree(b) == 3
        assert barword_text(b) == "a.b|c"
        assert barword_text(UNIT) == "1"

    def test_delta_bar_is_multiplicative(self):
        a, b = w("ab"), w("c")
        assert delta_bar((a, b), "full") == \
            tensor_product(delta_bar((a,), "full"), delta_bar((b,), "full"))

    def test_delta_bar_of_unit(self):
        assert delta_bar(UNIT, "full") == {(UNIT, UNIT): ONE}

    def test_reduced_variant_drops_group_likes(self):
        b = (w("ab"),)
        reduced = delta_bar(b, "reduced")
        assert (b, UNIT) not in reduced
        assert (UNIT, b) not in reduced
        rebuilt = lincomb_sum(reduced, {(b, UNIT): ONE, (UNIT, b): ONE})
        assert rebuilt == delta_bar(b, "full")

    def test_left_plus_and_left_differ_by_group_like(self):
        b = (w("ab"),)
        plus = dict(delta_bar(b, "left+"))
        add_into(plus, (b, UNIT), -ONE)
        assert plus == delta_bar(b, "left")

    def test_mixed_atom_kinds_rejected(self):
        with pytest.raises(AlgebraMismatchError):
            delta_bar((w("a"), nc("{1}")), "full")


class TestCoassociativity:
    def _check(self, b):
        full = delta_bar(b, "full")
        lhs = {}
        rhs = {}
        for (l, r), c in full.items():
            for (x, y), d in delta_bar(l, "full").items():
                add_into(lhs, (x, y, r), c * d)
            for (x, y), d in delta_bar(r, "full").items():
                add_into(rhs, (l, x, y), c * d)
        assert lhs == rhs

    def test_words(self):
        for text in ("a", "ab", "abc", "abca"):
            self._check((w(text),))

    def test_nc(self):
        for n in range(1, 5):
            for shape in enumerate_nc_partitions(n):
                self._check((DecoratedNC(shape),))


class TestSplittingMap:
    def test_single_letter(self):
        b = (w("a"),)
        assert sp(b) == {(nc("{1}", "a"),): ONE}

    def test_length_two_sum(self):
        b = (w("ab"),)
        image = sp(b)
        assert set(image) == {
            (nc("{1,2}", "ab"),),
            (nc("{1}{2}", "ab"),),
        }
        assert all(c == ONE for c in image.values())

    def test_bar_structure_preserved(self):
        b = (w("a"), w("b"))
        image = sp(b)
        assert set(image) == {(nc("{1}", "a"), nc("{1}", "b"))}

    def test_term_count_is_catalan_product(self):
        b = (w("abc"), w("ab"))
        assert len(sp(b)) == 5 * 2

    def test_rejects_partition_atoms(self):
        with pytest.raises(AlgebraMismatchError):
            sp((nc("{1}"),))

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            sp((Word(("a",) * 99),))


class TestParsing:
    def test_parse_word(self):
        assert parse_word("a.b.c") == w("abc")
        with pytest.raises(ParseError):
            parse_word("")

    @pytest.mark.parametrize("text", [
        "a..b", ".a.", "a.", ".a", ".", "{1,2}:a..b", "{1}:.a"])
    def test_empty_letter_rejected(self, text):
        with pytest.raises(ParseError, match="empty letter"):
            parse_atom(text)

    @pytest.mark.parametrize("read,text", [
        *[(parse_word, t) for t in ("a b", "a\tb.c", "a|b.c", "a:b", "{1}",
                                    "a}", "(a)", "a⊗b", "2·a")],
        *[(parse_atom, t) for t in ("a|b.c", "{1,2}:a|b.c", "{1}:a:b",
                                    "{1,2}:a.b c")]])
    def test_letter_holding_a_separator_rejected(self, read, text):
        # each would print as a different term, such as a two-atom bar word
        with pytest.raises(ParseError, match="separator"):
            read(text)

    @pytest.mark.parametrize("text", ["{1,2}:a", "{1}:a.b", "{2,3}:a.b.c"])
    def test_decoration_of_wrong_length_is_parse_error(self, text):
        with pytest.raises(ParseError, match="decoration"):
            parse_atom(text)

    def test_parse_atom_variants(self):
        assert parse_atom("a.b") == w("ab")
        assert parse_atom("{1,4}{2,3}") == nc("{1,4}{2,3}")
        assert parse_atom("{1,2}:a.b") == nc("{1,2}", "ab")
