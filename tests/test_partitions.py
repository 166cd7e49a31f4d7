import pytest
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from nc_hopf.errors import (
    CarrierMismatchError,
    OrderError,
    ParseError,
    SizeLimitError,
)
from nc_hopf.partitions import (
    NonCrossingPartition,
    SetPartition,
    admissible_splits,
    bell_number,
    catalan_number,
    enumerate_nc_partitions,
    enumerate_set_partitions,
    full_partition,
    is_noncrossing,
    moebius,
    moebius_to_top,
    parse_partition,
    split_table,
    standardize,
)
from nc_hopf import partitions
from nc_hopf.partitions import _blocks_noncrossing, _text_order
from split_tables import decode_split_table


def brute_force_crossing(blocks) -> bool:
    """Oracle: a quadruple p1 < q1 < p2 < q2 with p1,p2 in one block and
    q1,q2 in a different block."""
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            if i == j:
                continue
            for p1 in a:
                for p2 in a:
                    for q1 in b:
                        for q2 in b:
                            if p1 < q1 < p2 < q2:
                                return True
    return False


def pair_crosses(a, b) -> bool:
    """Oracle: blocks a, b admit x1 < y1 < x2 < y2 alternating between them
    iff the run-compressed label sequence of their merge has length >= 4."""
    merged = sorted([(x, 0) for x in a] + [(y, 1) for y in b])
    runs = 0
    last = None
    for _, label in merged:
        if label != last:
            runs += 1
            last = label
    return runs >= 4


def rgs_blocklists(carrier):
    """Oracle: every set partition of the sorted carrier, by restricted
    growth strings: each element joins one of the blocks opened before it
    or opens the next."""
    def grow(blocks, i):
        if i == len(carrier):
            yield [list(b) for b in blocks]
            return
        for block in [*blocks, []]:
            block.append(carrier[i])
            yield from grow(blocks if len(block) > 1 else [*blocks, block],
                            i + 1)
            block.pop()

    yield from grow([], 0)


def gap_blocklists(carrier):
    """Oracle: every non-crossing partition of the sorted carrier, by the
    gap recursion.  The block of the first element is chosen as a subset of
    the rest; everything else lives in the gaps between its consecutive
    members, each partitioned on its own."""
    if not carrier:
        yield ()
        return
    first, rest = carrier[0], carrier[1:]
    for mask in range(1 << len(rest)):
        chosen = tuple(x for i, x in enumerate(rest) if mask >> i & 1)
        gaps = [[] for _ in range(len(chosen) + 1)]
        gi = 0
        for x in rest:
            if gi < len(chosen) and x == chosen[gi]:
                gi += 1
            else:
                gaps[gi].append(x)
        for combo in product(*(tuple(gap_blocklists(tuple(g)))
                               for g in gaps)):
            yield ((first, *chosen), *(b for sub in combo for b in sub))


def text_sorted(blocklists, cls=SetPartition) -> list:
    """Oracle of the enumeration order: canonical partitions sorted by
    their text."""
    return sorted((cls.of(b) for b in blocklists), key=lambda p: p.text())


def catalan_closed_form(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def bell_by_dobinski_recurrence(n: int) -> int:
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


class TestCanonicalForm:
    def test_blocks_sorted_by_minimum(self):
        p = SetPartition.of([[4, 2], [1, 3]])
        assert p.blocks == ((1, 3), (2, 4))

    def test_duplicate_element_rejected(self):
        with pytest.raises(ValueError):
            SetPartition.of([[1, 2], [2, 3]])

    def test_repeated_element_in_a_block_rejected(self):
        with pytest.raises(ValueError):
            SetPartition(((1, 1), (2,)))
        with pytest.raises(ValueError):
            NonCrossingPartition.of([[1, 2, 1]])

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            SetPartition.of([[1], []])

    def test_crossing_rejected_by_nc_class(self):
        with pytest.raises(ValueError):
            NonCrossingPartition.of([[1, 3], [2, 4]])

    def test_carrier_and_size(self):
        p = SetPartition.of([[1, 4], [2, 3], [7]])
        assert p.carrier == (1, 2, 3, 4, 7)
        assert p.size == 5

    def test_text_round_trip(self):
        p = NonCrossingPartition.of([[1, 4], [2, 3]])
        assert p.text() == "{1,4}{2,3}"
        assert parse_partition(p.text()) == p


class TestCrossingDetection:
    def test_matches_brute_force_on_all_small_partitions(self):
        for n in range(1, 8):
            for p in enumerate_set_partitions(n):
                assert is_noncrossing(p) == (not brute_force_crossing(p.blocks))

    def test_stack_walk_matches_pairwise_definition(self):
        checked = crossing = 0
        for n in range(1, 10):
            for blocks in _text_order(tuple(range(1, n + 1)), False):
                pairwise = any(pair_crosses(a, b)
                               for i, a in enumerate(blocks)
                               for b in blocks[i + 1:])
                assert _blocks_noncrossing(blocks) == (not pairwise), blocks
                checked += 1
                crossing += pairwise
        assert checked == sum(bell_number(n) for n in range(1, 10))
        assert checked - crossing == sum(catalan_number(n)
                                         for n in range(1, 10))

    def test_gapped_carrier(self):
        assert is_noncrossing(SetPartition.of([[1, 9], [3, 5]]))
        assert not is_noncrossing(SetPartition.of([[1, 5], [3, 9]]))


class TestEnumeration:
    def test_nc_counts_are_catalan(self):
        for n in range(1, 11):
            assert len(enumerate_nc_partitions(n)) == catalan_closed_form(n)

    def test_set_counts_are_bell(self):
        for n in range(1, 11):
            assert len(enumerate_set_partitions(n)) == \
                bell_by_dobinski_recurrence(n)

    def test_count_helpers_agree_with_closed_forms(self):
        for n in range(11):
            assert catalan_number(n) == catalan_closed_form(n)
            assert bell_number(n) == bell_by_dobinski_recurrence(n)

    def test_nc_subset_of_set_partitions(self):
        for n in range(1, 7):
            ncs = {p.blocks for p in enumerate_nc_partitions(n)}
            alls = {p.blocks for p in enumerate_set_partitions(n)}
            assert ncs == {b for b in alls
                           if is_noncrossing(SetPartition(b))}

    def test_text_order_matches_the_sort_oracle(self):
        for n in range(1, 10):
            carrier = tuple(range(1, n + 1))
            assert enumerate_set_partitions(n) == \
                text_sorted(rgs_blocklists(carrier))
            assert enumerate_nc_partitions(n) == \
                text_sorted(gap_blocklists(carrier), NonCrossingPartition)

    @pytest.mark.parametrize("carrier", [(1, 2, 3, 20, 21, 30, 200, 201, 2000),
                                         (1, 2, 3, 10, 20, 21, 100, 101)])
    def test_text_order_when_decimal_strings_are_prefixes(self, carrier):
        # a member's decimal string is a prefix of another's, and the
        # text puts "2," < "20," < "20}" < "2}"
        got = list(_text_order(carrier, False))
        assert got == [p.blocks for p in text_sorted(rgs_blocklists(carrier))]
        got = list(_text_order(carrier, True))
        assert got == [p.blocks for p in text_sorted(gap_blocklists(carrier))]

    def test_enumeration_deterministic(self):
        assert enumerate_nc_partitions(5) == enumerate_nc_partitions(5)

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            enumerate_nc_partitions(99)
        with pytest.raises(SizeLimitError):
            enumerate_set_partitions(50)


def assert_passes_the_constructor(p, cls, size):
    """``p`` is what the public constructor of ``cls`` makes of new tuples
    of the same blocks: same class, blocks, size and hash."""
    assert type(p) is cls and type(p.blocks) is tuple
    assert all(type(b) is tuple for b in p.blocks)
    twin = cls(tuple(tuple(list(b)) for b in p.blocks))
    assert twin == p and twin.blocks == p.blocks
    assert p.size == twin.size == size
    assert hash(p) == hash(twin)


class TestUncheckedConstruction:
    """The generators build their partitions without the constructor's
    checks; these oracles hold every one of them to the checks."""

    @pytest.mark.parametrize("lattice,cls", [
        ("set", SetPartition), ("nc", NonCrossingPartition)])
    def test_generated_partitions_pass_the_constructor(self, lattice, cls):
        for n in range(1, 10):
            listed = (enumerate_nc_partitions(n) if lattice == "nc"
                      else enumerate_set_partitions(n))
            streamed = list(partitions.iter_partitions(lattice, n))
            assert listed == streamed
            for p in streamed:
                assert_passes_the_constructor(p, cls, n)

    def test_split_table_parts_pass_the_constructor(self):
        for n in range(1, 9):
            for p in enumerate_nc_partitions(n):
                parts, _ = decode_split_table(p.blocks, split_table(p.blocks))
                for ids, shape, ranks in parts:
                    assert_passes_the_constructor(shape, NonCrossingPartition,
                                                  len(ranks))
                    assert len(ranks) == sum(len(p.blocks[i]) for i in ids)


class TestOrderAndStandardization:
    def test_standardization_worked_example(self):
        p = NonCrossingPartition.of([[3, 6, 10], [4, 5], [8]])
        assert standardize(p) == \
            NonCrossingPartition.of([[1, 4, 6], [2, 3], [5]])

    def test_standardize_preserves_class(self):
        p = NonCrossingPartition.of([[2, 5], [3, 4]])
        assert isinstance(standardize(p), NonCrossingPartition)


def oracle_components(s, u) -> list[tuple[int, ...]]:
    """Connected components of U - S relative to U: maximal runs of elements
    of U - S with no element of S in between, in increasing order."""
    components, run = [], []
    for x in sorted(u):
        if x in s:
            if run:
                components.append(tuple(run))
            run = []
        else:
            run.append(x)
    if run:
        components.append(tuple(run))
    return components


def oracle_splits(p):
    """The admissible splits of p from the definition, as (Q blocks, blocks
    of each component): every block mask in order, kept unless some Q-block
    lies strictly inside some T-block; T's blocks grouped by the component
    of the complement of Q's carrier that holds them."""
    blocks, k = p.blocks, len(p.blocks)
    out = []
    for mask in range(1 << k):
        q = [b for i, b in enumerate(blocks) if mask >> i & 1]
        t = [b for i, b in enumerate(blocks) if not mask >> i & 1]
        if any(tb[0] < qb[0] and qb[-1] < tb[-1] for qb in q for tb in t):
            continue
        comps = oracle_components({x for b in q for x in b}, p.carrier)
        out.append((tuple(q), tuple(
            tuple(b for b in t if set(b) <= set(c)) for c in comps)))
    return out


def upset_count(p) -> int:
    """Number of block sets closed under passing to an enclosing block: in
    the nesting forest (parent = innermost enclosing block), a tree counts
    1 (nothing taken) plus the product over the root's subtrees."""
    blocks = p.blocks
    children = {b: [] for b in blocks}
    roots = []
    for b in blocks:
        around = [o for o in blocks if o[0] < b[0] and b[-1] < o[-1]]
        if around:
            children[max(around, key=lambda o: o[0])].append(b)
        else:
            roots.append(b)

    def ways(b):
        return 1 + prod(ways(c) for c in children[b])

    return prod(ways(r) for r in roots)


def mask_split_table(p):
    """Oracle for ``split_table``: every block mask in order, rejected
    unless it holds every block around each of its blocks; a T-block joins
    the component after as many Q elements as precede its first element.
    Parts are deduplicated in the order they are met."""
    blocks = p.blocks
    k = len(blocks)
    around = [sum(1 << j for j, outer in enumerate(blocks)
                  if outer[0] < b[0] and b[-1] < outer[-1]) for b in blocks]
    walk = sorted((x, i) for i, b in enumerate(blocks) for x in b)
    owner = [i for _, i in walk]
    opens = [x == blocks[i][0] for x, i in walk]
    parts, index = [], {}

    def part(ids):
        if ids not in index:
            index[ids] = len(parts)
            ranks = tuple(r for r, i in enumerate(owner) if i in ids)
            members = {i: [] for i in ids}
            for j, r in enumerate(ranks, start=1):
                members[owner[r]].append(j)
            shape = tuple(tuple(members[i]) for i in ids)
            parts.append((ids, NonCrossingPartition(shape), ranks))
        return index[ids]

    splits = []
    for mask in range(1 << k):
        q = tuple(i for i in range(k) if mask >> i & 1)
        if any(around[i] & ~mask for i in q):
            continue
        comps, seen = {}, 0
        for i, first in zip(owner, opens):
            if mask >> i & 1:
                seen += 1
            elif first:
                comps.setdefault(seen, []).append(i)
        splits.append((bool(mask & 1), part(q) if q else None,
                       tuple(part(tuple(c)) for c in comps.values())))
    return tuple(parts), tuple(splits)


class TestAdmissibleSplits:
    def test_split_walk_matches_the_mask_loop(self):
        shapes = [p for n in range(1, 9) for p in enumerate_nc_partitions(n)]
        # a shape on a carrier other than [n]
        shapes.append(NonCrossingPartition.of(
            [[2, 9, 15], [3, 4], [5, 8], [6], [11, 14], [12]]))
        for p in shapes:
            assert decode_split_table(p.blocks, split_table(p.blocks)) \
                == mask_split_table(p), p

    def test_equal_part_shapes_are_one_object(self):
        # within one table: equal shapes are one object, and no two splits
        # hold the same component list (it decides T, so the split)
        for p in (p for n in range(1, 8) for p in enumerate_nc_partitions(n)):
            table = split_table(p.blocks)
            shapes = {}
            for shape in table[0]:
                assert shapes.setdefault(shape, shape) is shape
            _, decoded = decode_split_table(p.blocks, table)
            lists = [comps for _, _, comps in decoded]
            assert len(set(lists)) == len(lists)

    def test_the_singleton_partition_holds_one_shape_per_size(self):
        # each part of 0̂ₙ, a kept subset or a run, is some 0̂ₖ
        for n in range(1, 11):
            shapes = split_table(tuple((x,) for x in range(1, n + 1)))[0]
            assert len({id(shape) for shape in shapes}) == n
            assert set(shapes) == {
                tuple((x,) for x in range(1, k + 1)) for k in range(1, n + 1)}

    def test_matches_definition_and_nesting_forest(self):
        shapes = [p for n in range(1, 9) for p in enumerate_nc_partitions(n)]
        # a shape on a carrier other than [n]
        shapes.append(NonCrossingPartition.of(
            [[2, 9, 15], [3, 4], [5, 8], [6], [11, 14], [12]]))
        for p in shapes:
            splits = admissible_splits(p)
            got = [(q.blocks, tuple(c.blocks for c in components))
                   for q, components in splits]
            assert got == oracle_splits(p), p
            assert len(splits) == upset_count(p), p
            assert all(isinstance(part, NonCrossingPartition)
                       for q, components in splits
                       for part in (q, *components))

    def test_total_and_extreme_splits(self):
        p = NonCrossingPartition.of([[1, 4], [2, 3]])
        splits = admissible_splits(p)
        q_parts = [q.blocks for q, _ in splits]
        assert () in q_parts
        assert p.blocks in q_parts

    def test_nested_selection_rule(self):
        # the inner block alone cannot be selected: it is nested in the outer
        p = NonCrossingPartition.of([[1, 4], [2, 3]])
        selected = {q.blocks for q, _ in admissible_splits(p)}
        assert ((2, 3),) not in selected
        assert ((1, 4),) in selected

    def test_components_partition_the_complement(self):
        for n in range(1, 6):
            for p in enumerate_nc_partitions(n):
                for q, components in admissible_splits(p):
                    left = set(q.carrier)
                    right = set()
                    for comp in components:
                        right.update(comp.carrier)
                    assert left | right == set(p.carrier)
                    assert not left & right

    def test_split_count_example(self):
        # {{1,2},{3},{4}}: every block subset except {3}-with-{4}-kept cases
        p = NonCrossingPartition.of([[1, 2], [3], [4]])
        assert len(admissible_splits(p)) == 8


def refines(fine, coarse) -> bool:
    """Oracle: every block of ``fine`` lies inside a block of ``coarse``."""
    return all(any(set(b) <= set(c) for c in coarse.blocks)
               for b in fine.blocks)


def singletons(n: int) -> NonCrossingPartition:
    """The all-singletons partition 0̂ of [n]."""
    return NonCrossingPartition.of([x] for x in range(1, n + 1))


def moebius_by_definition(elements) -> dict:
    """mu(x, y) on every interval of the lattice ``elements``, keyed by the
    pair, from the definition: mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z)
    over x <= z < y."""
    # finer first: z < y has more blocks than y
    order = sorted(elements, key=lambda p: -len(p.blocks))
    below = {y: [z for z in order if z != y and refines(z, y)] for y in order}
    out = {}
    for x in order:
        mu = {}
        for y in order:
            if y == x:
                mu[y] = 1
            elif refines(x, y):
                mu[y] = -sum(mu[z] for z in below[y] if z in mu)
        out.update(((x, y), v) for y, v in mu.items())
    return out


class TestMoebius:
    def test_closed_forms(self):
        for n in range(1, 8):
            lo = singletons(n)
            hi = full_partition(range(1, n + 1))
            assert moebius("set", lo, hi) == \
                (-1) ** (n - 1) * factorial(n - 1)
            assert moebius("nc", lo, hi) == \
                (-1) ** (n - 1) * catalan_closed_form(n - 1)

    def test_reflexive_interval(self):
        p = NonCrossingPartition.of([[1, 2], [3]])
        assert moebius("nc", p, p) == 1

    @pytest.mark.parametrize("lattice,enum", [
        ("set", enumerate_set_partitions), ("nc", enumerate_nc_partitions)])
    def test_matches_the_definition_on_every_interval(self, lattice, enum):
        for n in range(1, 7):
            for (lo, hi), mu in moebius_by_definition(enum(n)).items():
                assert moebius(lattice, lo, hi) == mu, (lo, hi)

    def test_no_search_from_bottom_to_top(self, monkeypatch):
        # the coarsening search would visit every partition of [12]
        def no_search(*args):
            raise AssertionError("moebius searched the lattice")

        monkeypatch.setattr(partitions, "_text_order", no_search)
        monkeypatch.setattr(partitions, "moebius_to_top", no_search)
        lo = singletons(12)
        hi = full_partition(range(1, 13))
        assert moebius("nc", lo, hi) == -catalan_closed_form(11) == -58786
        assert moebius("set", lo, hi) == -factorial(11) == -39916800

    def test_column_matches_per_interval_recursion(self):
        # the recursion is the oracle of the closed form on every [pi, 1̂]
        for lattice, enum in (("set", enumerate_set_partitions),
                              ("nc", enumerate_nc_partitions)):
            for n in range(1, 8):
                top = full_partition(range(1, n + 1))
                column = moebius_to_top(lattice, n)
                for p in enum(n):
                    assert column[p.blocks] == moebius(lattice, p, top)

    def test_moebius_inversion_identity(self):
        # sum over the full interval of mu(L, top) is 0 for n > 1
        for n in range(2, 7):
            assert sum(moebius_to_top("nc", n).values()) == 0
            assert sum(moebius_to_top("set", n).values()) == 0

    def test_set_product_rule_on_every_interval(self):
        # mu(lo, hi) = prod over hi-blocks H of (-1)^(k-1) (k-1)!, where k
        # is the number of lo-blocks inside H
        for n in range(1, 6):
            parts = enumerate_set_partitions(n)
            for hi in parts:
                for lo in parts:
                    if not refines(lo, hi):
                        continue
                    expect = 1
                    for block in hi.blocks:
                        k = sum(1 for b in lo.blocks if b[0] in block)
                        expect *= (-1) ** (k - 1) * factorial(k - 1)
                    assert moebius("set", lo, hi) == expect, (lo, hi)

    def test_nc_product_rule_from_bottom(self):
        # mu(0̂, hi) = prod over hi-blocks H of the signed Catalan number
        # (-1)^(|H|-1) C(|H|-1)
        for n in range(1, 7):
            bottom = singletons(n)
            for hi in enumerate_nc_partitions(n):
                expect = 1
                for block in hi.blocks:
                    expect *= ((-1) ** (len(block) - 1)
                               * catalan_closed_form(len(block) - 1))
                assert moebius("nc", bottom, hi) == expect, hi

    def test_two_element_interval_on_a_large_carrier(self):
        # [lo, hi] has two elements; the product rule never visits the
        # Bell(12) partitions of the carrier
        lo = SetPartition.of([range(1, 12), [12]])
        hi = SetPartition.of([range(1, 13)])
        assert moebius("set", lo, hi) == -1

    def test_order_violation(self):
        lo = SetPartition.of([[1, 2], [3]])
        hi = SetPartition.of([[1, 3], [2]])
        with pytest.raises(OrderError):
            moebius("set", lo, hi)

    def test_unknown_lattice_rejected(self):
        p = SetPartition.of([[1, 2]])
        for call in (lambda: moebius("tree", p, p),
                     lambda: moebius_to_top("tree", 2)):
            with pytest.raises(ValueError,
                               match="unknown lattice selector: 'tree'"):
                call()

    def test_endpoints_on_different_carriers_rejected(self):
        lo = SetPartition.of([[1], [2]])
        hi = SetPartition.of([[1, 3]])
        for lattice in ("set", "nc"):
            with pytest.raises(CarrierMismatchError,
                               match="interval endpoints on different "
                                     "carriers"):
                moebius(lattice, lo, hi)

    def test_crossing_endpoint_rejected_on_nc(self):
        lo = SetPartition.of([[1, 3], [2, 4]])
        hi = SetPartition.of([[1, 2, 3, 4]])
        with pytest.raises(ValueError):
            moebius("nc", lo, hi)


class TestParsing:
    def test_parse_with_carrier_suffix(self):
        # the encoding is blocks only: a carrier suffix is malformed
        for text in ("{2,5}{3,4} on {2,3,4,5}", "{1,2} on {1,2}",
                     "{1}{2} on {1,3}", "{ 1 , 4 }{2,3} on { 1,2,3,4 }"):
            for noncrossing in (True, False):
                with pytest.raises(ParseError,
                                   match="malformed partition encoding"):
                    parse_partition(text, noncrossing=noncrossing)

    def test_parse_rejects_malformed(self):
        for bad in ["", "{1,2", "{1}{1}", "{}", "1,2"]:
            with pytest.raises(ParseError):
                parse_partition(bad)

    def test_parse_rejects_repeated_element_in_a_block(self):
        for bad in ["{1,1}{2}", "{1,2,1}", "{1}{2,3,3}"]:
            with pytest.raises(ParseError):
                parse_partition(bad)
            with pytest.raises(ParseError):
                parse_partition(bad, noncrossing=False)

    @pytest.mark.parametrize("bad", [
        "{1 2}", "{1,,2}", "{1,}", "{,1}", "{1}{2,,3}", "{1\u00a02}",
        "{1}{2} on {1 2}", "{1,2} on {1,,2}", "{1,2} on {1,2,}",
        "{" + "1" * 5000 + "}"])
    def test_parse_rejects_malformed_member_lists(self, bad):
        # a missing comma, an empty member, a blank inside a number or a
        # number past int()'s digit limit is malformed, never an int()
        # failure or a silent read
        for noncrossing in (True, False):
            with pytest.raises(ParseError):
                parse_partition(bad, noncrossing=noncrossing)

    def test_parse_allows_blanks_around_members(self):
        assert parse_partition(" { 1 , 4 }{2,3} ") == \
            NonCrossingPartition.of([[1, 4], [2, 3]])

    def test_parse_set_flavor_allows_crossing(self):
        p = parse_partition("{1,3}{2,4}", noncrossing=False)
        assert isinstance(p, SetPartition)
        with pytest.raises(ParseError):
            parse_partition("{1,3}{2,4}")


@st.composite
def random_partition(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.lists(st.integers(min_value=1, max_value=n),
                           min_size=n, max_size=n))
    blocks = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    return SetPartition.of(blocks.values())


@given(random_partition())
@settings(max_examples=80, deadline=None)
def test_parse_text_round_trip_property(p):
    assert parse_partition(p.text(), noncrossing=False) == p


@st.composite
def word_and_positions(draw):
    """A random tuple and sorted position tuples into it: the empty tuple,
    one position, an interval and a scattered subset."""
    word = tuple(draw(st.lists(st.one_of(st.integers(), st.text(max_size=2),
                                         st.tuples(st.integers())),
                               min_size=1, max_size=12)))
    index = st.integers(min_value=0, max_value=len(word) - 1)
    start = draw(index)
    stop = draw(st.integers(min_value=start + 1, max_value=len(word)))
    scattered = tuple(sorted(draw(st.sets(index))))
    return word, [(), (draw(index),), tuple(range(start, stop)), scattered]


@given(word_and_positions())
@settings(max_examples=200, deadline=None)
def test_gathers_restrict_to_the_positions_as_a_tuple(case):
    # a one-position gather returns the one-item tuple, not the bare item
    word, positions = case
    gathers = partitions._gathers(positions)
    assert len(gathers) == len(positions)
    for p, gather in zip(positions, gathers):
        restricted = gather(word)
        assert type(restricted) is tuple
        assert restricted == tuple(word[i] for i in p)
    assert partitions._gathers([]) == []
