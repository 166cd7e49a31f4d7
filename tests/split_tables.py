"""Decoding of a compiled ``partitions.split_table``, for the tests that
hold it to its oracles.  The table keeps its ranks and component lists
only in gathers, and an ``operator.itemgetter`` is equal only to itself,
so the tests compare tables decoded."""

from nc_hopf.partitions import NonCrossingPartition


def decode_split_table(blocks, table) -> tuple[tuple, tuple]:
    """``table``, the split table of the partition p with these canonical
    ``blocks``, with its positions read back from the gathers: parts as
    (the indices of the part's blocks in p, its shape, the 0-based ranks
    of its carrier in p's carrier) and splits as (whether p's first
    element lies in Q, the Q part's index or ``None``, the indices of the
    component parts, left to right), both halves merged back into the
    order of the Q-block bitmasks.  A shape is wrapped with no check, so
    that the tests can hold it to the constructor."""
    shapes, ranks, bounds, halves = table
    # owner[r]: the index of the block of p that holds the element of rank r
    owner = [i for _, i in sorted((x, i) for i, b in enumerate(blocks)
                                  for x in b)]
    every = ranks(tuple(range(len(owner))))
    parts = []
    for shape, start, end in zip(shapes, bounds, bounds[1:]):
        mine = every[start:end]
        parts.append((tuple(dict.fromkeys(owner[r] for r in mine)),
                      NonCrossingPartition._unchecked(blocks=shape,
                                                        size=len(mine)),
                      mine))
    indices = tuple(range(len(shapes)))
    splits = []
    for in_q, (qs, comps, ends) in zip((True, False), halves):
        picked = comps(indices)
        splits += [(sum(1 << i for i in parts[q][0]) if q >= 0 else 0,
                    (in_q, q if q >= 0 else None, picked[start:end]))
                   for q, start, end in zip(qs, ends, ends[1:])]
    return tuple(parts), tuple(split for _, split in sorted(splits))
