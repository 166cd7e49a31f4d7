from fractions import Fraction

import pytest

from nc_hopf.errors import ParseError, SizeLimitError
from nc_hopf.partitions import NonCrossingPartition, enumerate_nc_partitions
from nc_hopf.tensor import DecoratedNC, add_into, delta_nc
from nc_hopf.trees import (
    GAP,
    admissible_edge_cuts,
    erase_gaps,
    forest_text,
    gapped_hierarchy_tree,
    hierarchy_tree,
    parse_tree,
    tree_coproduct,
    tree_degree,
    tree_tensor_text,
    tree_text,
    tree_to_json,
)

LEAF = ()
T1 = ((),)                 # root with a single leaf child
T2 = ((), ())              # root with two leaf children
T3 = ((), (), ())          # root with three leaf children
CHAIN = (((),),)           # root - vertex - leaf
SPLIT = ((LEAF, GAP, LEAF),)  # one vertex, its two leaves in different gaps


def nc(blocks):
    return NonCrossingPartition.of(blocks)


def from_json(data):
    """Oracle: the tree whose JSON form ``tree_to_json`` writes as ``data``."""
    return tuple(GAP if child == GAP else from_json(child) for child in data)


class TestEncoding:
    def test_text_round_trip(self):
        for t in (LEAF, T1, T2, T3, CHAIN, ((CHAIN), T2)):
            assert parse_tree(tree_text(t)) == t

    def test_known_encodings(self):
        assert tree_text(T2) == "(()())"
        assert tree_text(CHAIN) == "((()))"
        assert tree_text(LEAF) == "()"

    def test_parse_rejects_malformed(self):
        for bad in ("", "(", "())", "(()", "x"):
            with pytest.raises(ParseError):
                parse_tree(bad)

    def test_json_round_trip(self):
        t = ((CHAIN), T2, LEAF)
        assert tree_to_json(t) == [[[[]]], [[], []], []]
        assert from_json(tree_to_json(t)) == t

    def test_degree_counts_non_root_vertices(self):
        assert tree_degree(LEAF) == 0
        assert tree_degree(T3) == 3
        assert tree_degree(CHAIN) == 2


# past the NC cap (14 vertices): 1199 and 15 nested vertices, 24 and 15 leaves
TOO_BIG = ["(" * 1200 + ")" * 1200, "(" * 16 + ")" * 16,
           "(" + "()" * 24 + ")", "(" + "()" * 15 + ")"]


class TestSizeGuard:
    def test_trees_at_the_cap_are_read(self):
        for text in ("(" * 15 + ")" * 15, "(" + "()" * 14 + ")"):
            t = parse_tree(text)
            assert tree_degree(t) == 14
            assert from_json(tree_to_json(t)) == t

    @pytest.mark.parametrize("text", TOO_BIG)
    def test_readers_stop_past_the_cap(self, text):
        with pytest.raises(SizeLimitError):
            parse_tree(text)

    @pytest.mark.parametrize("text", [
        "((((()))))", "(()()()())", "((()|())())", "(()()()()(((("])
    def test_a_lowered_cap_stops_the_reader_at_its_first_vertex_past_it(
            self, monkeypatch, text):
        # the shared cap check's text; the last tree is read no further
        monkeypatch.setenv("NCHOPF_MAX_N", "3")
        with pytest.raises(SizeLimitError,
                           match=r"^n=4 outside allowed range 1\.\.3$"):
            parse_tree(text)


class TestHierarchyMap:
    def test_singleton(self):
        assert hierarchy_tree(nc([[1]])) == T1

    def test_worked_example(self):
        t = hierarchy_tree(nc([[1, 4], [2, 3], [5, 6, 7]]))
        assert t == (((),), ())

    def test_collision(self):
        a = nc([[1, 4], [2, 3], [5, 6, 7]])
        b = nc([[1, 3], [2], [4, 5]])
        assert a != b
        assert hierarchy_tree(a) == hierarchy_tree(b)

    def test_children_ordered_by_block_minimum(self):
        t = hierarchy_tree(nc([[1, 8], [2, 3], [4], [5, 7], [6]]))
        # inside {1,8}: children {2,3}, {4}, {5,7}; {6} inside {5,7}
        assert t == (((), (), ((),)),)

    def test_degree_equals_block_count(self):
        for n in range(1, 7):
            for shape in enumerate_nc_partitions(n):
                assert tree_degree(hierarchy_tree(shape)) == len(shape.blocks)


class TestAdmissibleCuts:
    def test_single_edge(self):
        cuts = admissible_edge_cuts(T1)
        assert set(cuts) == {(), ((0,),)}

    def test_crown_all_subsets(self):
        cuts = admissible_edge_cuts(T3)
        assert len(cuts) == 8

    def test_chain_excludes_stacked_edges(self):
        cuts = admissible_edge_cuts(CHAIN)
        assert set(cuts) == {(), ((0,),), ((0, 0),)}

    def test_deterministic_order(self):
        assert admissible_edge_cuts(T3) == admissible_edge_cuts(T3)
        cuts = admissible_edge_cuts(T3)
        assert cuts[0] == () and list(cuts) == sorted(cuts)
        assert all(list(cut) == sorted(cut) for cut in cuts)


class TestTreeCoproduct:
    def test_single_leaf(self):
        assert tree_coproduct(T1) == {
            (T1, ()): Fraction(1),
            (LEAF, (T1,)): Fraction(1),
        }

    def test_three_leaf_crown_display(self):
        terms = tree_coproduct(T3)
        assert terms == {
            (T3, ()): Fraction(1),
            (LEAF, (T3,)): Fraction(1),
            (T2, (T1,)): Fraction(3),
            (T1, (T2,)): Fraction(2),
            (T1, (T1, T1)): Fraction(1),
        }

    def test_second_worked_display(self):
        t = (((),), ())  # chain child plus leaf child
        terms = tree_coproduct(t)
        assert terms == {
            (t, ()): Fraction(1),
            (LEAF, (t,)): Fraction(1),
            (CHAIN, (T1,)): Fraction(1),
            (T2, (T1,)): Fraction(1),
            (T1, (CHAIN,)): Fraction(1),
            (T1, (T1, T1)): Fraction(1),
        }

    def test_adjacent_run_regrafts_under_one_root(self):
        # cutting both leaf edges of T2 gives a single pruned tree
        terms = tree_coproduct(T2)
        assert terms[(LEAF, (T2,))] == 1
        assert (LEAF, (T1, T1)) not in terms

    def test_text_rendering(self):
        text = tree_tensor_text(tree_coproduct(T1))
        assert "(()) ⊗ 1" in text and "() ⊗ (())" in text
        assert forest_text(()) == "1"


# ---------------------------------------------------------------------------
# reference: the rooted part and the pruned forest of a cut in two walks


def _remove_cut(t, cut_set, prefix):
    """The rooted part: ``t`` without its cut subtrees, each mark kept only
    where it still separates two remaining siblings."""
    kept = []
    for i, child in enumerate(t):
        if child is GAP:
            if kept and kept[-1] is not GAP:
                kept.append(GAP)
            continue
        path = prefix + (i,)
        if path in cut_set:
            continue
        kept.append(_remove_cut(child, cut_set, path))
    if kept and kept[-1] is GAP:
        kept.pop()
    return tuple(kept)


def _pruned_forest(t, cut):
    """Cut subtrees regrafted under new roots, one root per maximal run of
    consecutive cut sibling edges not separated by a mark, in left-to-right
    planar order."""
    cut_set = set(cut)
    forest = []

    def walk(node, prefix):
        run = []
        for i, child in enumerate(node):
            path = prefix + (i,)
            if path in cut_set:
                run.append(child)
                continue
            if run:
                forest.append(tuple(run))
                run = []
            if child is not GAP:
                walk(child, path)
        if run:
            forest.append(tuple(run))

    walk(t, ())
    return tuple(forest)


def reference_tree_coproduct(t):
    out = {}
    for cut in admissible_edge_cuts(t):
        rooted = _remove_cut(t, frozenset(cut), ())
        add_into(out, (rooted, _pruned_forest(t, cut)), 1)
    return out


class TestOneWalkPerCut:
    def test_matches_the_two_walk_reference_on_hierarchy_trees(self):
        trees = {make(shape) for n in range(1, 9)
                 for shape in enumerate_nc_partitions(n)
                 for make in (gapped_hierarchy_tree, hierarchy_tree)}
        assert any(GAP in tree_text(t) for t in trees)
        for t in trees:
            assert tree_coproduct(t) == reference_tree_coproduct(t), t

    @pytest.mark.parametrize("text", ["((()|()))", "((()|()()|()))"])
    def test_matches_the_reference_on_marked_trees(self, text):
        t = parse_tree(text)
        assert tree_coproduct(t) == reference_tree_coproduct(t)


def transported(shape):
    """delta_nc of ``shape`` pushed through the gapped hierarchy map; an
    atom holds its shape's blocks first."""
    def tree(atom):
        return gapped_hierarchy_tree(NonCrossingPartition(atom[0]))

    out = {}
    for (left, right), c in delta_nc(DecoratedNC(shape)).items():
        rooted = tree(left[0]) if left else LEAF
        forest = tuple(tree(a) for a in right)
        add_into(out, (rooted, forest), c)
    return out


class TestGapMarks:
    def test_degree_skips_marks(self):
        assert tree_degree(SPLIT) == 3
        assert tree_degree(((T1, GAP, LEAF, LEAF),)) == 5

    def test_text_and_json_round_trip(self):
        t = ((T1, GAP, LEAF, LEAF), SPLIT)
        assert tree_text(SPLIT) == "((()|()))"
        assert tree_text(t) == "(((())|()())((()|())))"
        assert parse_tree(tree_text(t)) == t
        assert tree_to_json(SPLIT) == [[[], "|", []]]
        assert from_json(tree_to_json(t)) == t

    @pytest.mark.parametrize("bad", [
        "((|()))",        # leading
        "((()|))",        # trailing
        "((()||()))",     # doubled
        "(()|())",        # directly under the root
        "((|))",          # a mark with no siblings at all
    ])
    def test_parse_rejects_misplaced_marks(self, bad):
        with pytest.raises(ParseError):
            parse_tree(bad)

    def test_cuts_never_cut_a_mark(self):
        cuts = admissible_edge_cuts(SPLIT)
        assert set(cuts) == {
            (), ((0,),), ((0, 0),), ((0, 2),), ((0, 0), (0, 2))}
        assert len(admissible_edge_cuts(erase_gaps(SPLIT))) == len(cuts)

    def test_marks_end_runs_and_collapse(self):
        # {1,3,5}{2}{4}: cutting both leaves gives two pruned trees, and the
        # rooted part keeps no mark once a side of it is gone
        assert tree_coproduct(SPLIT) == {
            (SPLIT, ()): 1,
            (LEAF, (SPLIT,)): 1,
            (CHAIN, (T1,)): 2,
            (T1, (T1, T1)): 1,
        }
        t = ((LEAF, GAP, LEAF, GAP, LEAF),)
        terms = tree_coproduct(t)
        assert terms[(SPLIT, (T1,))] == 3
        assert terms[(T1, (T1, T1, T1))] == 1


class TestGappedHierarchyMap:
    def test_marks_where_the_parent_separates_siblings(self):
        assert gapped_hierarchy_tree(nc([[1, 3, 5], [2], [4]])) == SPLIT
        assert gapped_hierarchy_tree(nc([[1, 4, 5], [2], [3]])) == (T2,)
        # siblings in one gap, a child beyond a childless gap, nested marks
        assert gapped_hierarchy_tree(nc([[1, 2, 5, 8], [3, 4], [6], [7]])) \
            == (((), GAP, (), ()),)
        assert gapped_hierarchy_tree(
            nc([[1, 9], [2, 4, 6, 8], [3], [5], [7]])) \
            == ((((), GAP, (), GAP, ()),),)

    def test_no_marks_under_the_root(self):
        assert gapped_hierarchy_tree(nc([[1], [2, 3], [4]])) == T3

    def test_erasing_marks_gives_the_bare_tree(self):
        for n in range(1, 8):
            for shape in enumerate_nc_partitions(n):
                gapped = gapped_hierarchy_tree(shape)
                assert erase_gaps(gapped) == hierarchy_tree(shape)
                assert parse_tree(tree_text(gapped)) == gapped

    def test_regression_pair_sharing_a_bare_tree(self):
        a = nc([[1, 3, 5], [2], [4]])
        b = nc([[1, 4, 5], [2], [3]])
        assert gapped_hierarchy_tree(a) != gapped_hierarchy_tree(b)
        assert hierarchy_tree(a) == hierarchy_tree(b)
        for shape in (a, b):
            assert tree_coproduct(gapped_hierarchy_tree(shape)) \
                == transported(shape)
