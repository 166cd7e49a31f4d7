"""The layer modules' caches in a long-lived process: each cache keyed by
caller input holds at most its bound, and a result read after other inputs
have pushed it out equals one computed afresh."""

import pytest

import nc_hopf
from nc_hopf.partitions import NonCrossingPartition
from nc_hopf.tensor import DecoratedNC
from split_tables import decode_split_table

# keyed by an order n no larger than the size cap, so the cap bounds them
ORDER_KEYED = {"_nc_shapes", "_type_table"}


def test_only_the_order_keyed_caches_are_unbounded():
    unbounded = {value.__name__
                 for name in nc_hopf._LAYERS
                 for value in vars(getattr(nc_hopf, name)).values()
                 if callable(getattr(value, "cache_info", None))
                 and value.cache_info().maxsize is None}
    assert unbounded == ORDER_KEYED


def planar_trees(edges: int):
    """Every bare planar rooted tree with ``edges`` non-root vertices."""
    if edges == 0:
        yield ()
        return
    # the first child's subtree takes k edges, the rest of the root the others
    for k in range(edges):
        for first in planar_trees(k):
            for rest in planar_trees(edges - 1 - k):
                yield (first, *rest)


# 2,056 distinct trees, more than the bound of the tree cache
TREES = [t for edges in range(9) for t in planar_trees(edges)]


def letter(i: int) -> tuple[str, ...]:
    return (f"x{i}",)


def singleton_on(i: int) -> NonCrossingPartition:
    return NonCrossingPartition.of([(i,)])


# (module, cache, the arguments of the i-th of an endless run of distinct
# inputs)
INPUT_KEYED = [
    ("partitions", "split_table", lambda i: (singleton_on(i).blocks,)),
    ("partitions", "admissible_splits", lambda i: (singleton_on(i),)),
    ("tensor", "_short_word_halves", lambda i: (("a", *letter(i)),)),
    ("tensor", "_long_word_halves", lambda i: (("a",) * 6 + letter(i),)),
    ("tensor", "delta_nc_halves",
     lambda i: (DecoratedNC(singleton_on(1), letter(i)),)),
    ("tensor", "_bar_coproduct",
     lambda i: ((letter(i), letter(i + 1)), "full")),
    ("trees", "admissible_edge_cuts", lambda i: (TREES[i],)),
]

# how a cached result is compared with one computed afresh: a split table's
# gathers are equal only to themselves, so its tables compare decoded
VIEWS = {"split_table": lambda args, table: decode_split_table(*args, table)}


def test_a_word_is_cached_by_its_length():
    tensor = nc_hopf.tensor
    short = ("a",) * tensor.SHORT_WORD
    long = short + ("b",)
    nc_hopf.clear_caches()
    try:
        assert tensor.delta_word_halves(short) == tensor._word_halves(short)
        assert tensor.delta_word_halves(long) == tensor._word_halves(long)
        assert tensor._short_word_halves.cache_info().currsize == 1
        assert tensor._long_word_halves.cache_info().currsize == 1
        assert tensor._short_word_halves(short) is tensor.delta_word_halves(
            short)
        assert tensor._long_word_halves(long) is tensor.delta_word_halves(long)
    finally:
        nc_hopf.clear_caches()


@pytest.mark.parametrize("module, name, make", INPUT_KEYED,
                         ids=[f"{m}.{n}" for m, n, _ in INPUT_KEYED])
def test_input_keyed_cache_holds_at_most_its_bound(module, name, make):
    fn = getattr(getattr(nc_hopf, module), name)
    view = VIEWS.get(name, lambda args, result: result)
    bound = fn.cache_info().maxsize
    assert bound is not None
    nc_hopf.clear_caches()
    count = bound + 16
    inputs = [make(i) for i in range(1, count + 1)]
    assert len(set(inputs)) == count
    try:
        results = [fn(*args) for args in inputs]
        info = fn.cache_info()
        assert info.misses == count and info.currsize == bound
        # the first inputs were pushed out: reading one again computes it
        assert view(inputs[0], fn(*inputs[0])) == view(inputs[0], results[0])
        assert fn.cache_info().misses == count + 1
        assert fn.cache_info().currsize <= bound
        for args, result in zip(inputs, results):
            fresh = fn.__wrapped__(*args)
            assert view(args, result) == view(args, fresh), args
    finally:
        nc_hopf.clear_caches()
