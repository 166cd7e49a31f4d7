"""Decoding of a compiled ``partitions.split_table``, for the tests that
hold it to its oracles.  The table keeps each part's ranks and each split's
component list only in gathers, and an ``operator.itemgetter`` is equal
only to itself, so the tests compare tables decoded."""


def decode_split_table(p, table) -> tuple[tuple, tuple]:
    """``table``, the split table of p, with its positions read back from
    the gathers: parts as (the indices of the part's blocks in p, its
    shape, the 0-based ranks of its carrier in p's carrier) and splits as
    (whether p's first element lies in Q, the Q part's index or ``None``,
    the indices of the component parts, left to right)."""
    parts, splits = table
    # owner[r]: the index of the block of p that holds the element of rank r
    owner = [i for _, i in sorted((x, i) for i, b in enumerate(p.blocks)
                                  for x in b)]
    decoded = []
    for shape, gather in parts:
        ranks = gather(tuple(range(len(owner))))
        decoded.append((tuple(dict.fromkeys(owner[r] for r in ranks)),
                        shape, ranks))
    indices = tuple(range(len(parts)))
    return tuple(decoded), tuple((in_q, q, pick(indices))
                                 for in_q, q, pick in splits)
