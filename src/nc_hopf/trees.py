"""Hierarchy trees of non-crossing partitions and the induced coproduct.

A planar rooted tree is a nested tuple: a node is the tuple of its ordered
child subtrees, so ``()`` is a bare root (the unit tree) and ``((), ())`` is
a root with two leaf children.  The degree of a tree is its number of
non-root vertices.

A node's children may be separated by gap marks, the :data:`GAP` constant
(``|`` in the text form, ``"|"`` in JSON).  A mark is not a vertex: it stands
between two consecutive siblings whose parent block has an element between
them, so the siblings sit in different gaps of the parent.  A mark never
leads, trails or doubles, and never stands directly under the root (the
root is not a block, so it has no elements to separate its children).
Trees without marks are the bare planar rooted trees above.  The reader
:func:`parse_tree` counts each non-root vertex through
``partitions.check_enumeration_size``, so a tree with more of them than the
NC cap, the most a hierarchy tree within the cap has, raises its
``SizeLimitError`` (``n=15 outside allowed range 1..14``) as soon as the
count passes the cap.

The hierarchy map sends a partition to the tree of its block nesting: one
vertex per block, parent the minimal strictly containing block, children
ordered by block minimum.  :func:`gapped_hierarchy_tree` keeps the gap
marks; :func:`hierarchy_tree` is the same tree with the marks erased.  Both
forget block contents, so both are many-to-one.

The tree coproduct sums over admissible edge cuts (at most one cut edge on
any root-to-leaf path).  Cut subtrees are regrafted under new roots in the
pruned part, with one shared root per maximal run of consecutive cut sibling
edges; a mark or an uncut sibling ends a run, and separate runs give
separate trees of an ordered forest.  Removing the cut children collapses
the marks left leading, trailing or doubled.  One walk per cut yields both
the rooted part and the forest.  On gapped hierarchy trees this
is exactly the partition coproduct pushed through the map; on bare trees it
is so only for the partitions whose gapped tree has no mark.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParseError
from .partitions import NonCrossingPartition, check_enumeration_size
from .tensor import LinComb, add_into, lincomb_text

Tree = tuple            # nested tuples of children and GAP marks; () is the bare root
Forest = tuple          # tuple[Tree, ...]; () is the empty forest
EdgePath = tuple        # child indices from the root, marks counted; (2, 0) = third entry's first entry

UNIT_TREE: Tree = ()
GAP = "|"               # gap mark between two siblings; compared by identity


def tree_degree(t: Tree) -> int:
    """Number of non-root vertices; marks are not vertices."""
    return sum(1 + tree_degree(child) for child in t if child is not GAP)


def tree_text(t: Tree) -> str:
    return "(" + "".join(GAP if child is GAP else tree_text(child)
                         for child in t) + ")"


def forest_text(f: Forest) -> str:
    return " ".join(tree_text(t) for t in f) if f else "1"


def erase_gaps(t: Tree) -> Tree:
    """The bare tree: ``t`` with every mark removed."""
    return tuple(erase_gaps(child) for child in t if child is not GAP)


def _checked_node(children: list, at_root: bool, source) -> Tree:
    """The node with these children, after checking where its marks stand."""
    if GAP in children:
        if at_root:
            raise ParseError(f"gap mark directly under the root in {source!r}")
        if children[0] is GAP or children[-1] is GAP:
            raise ParseError(f"leading or trailing gap mark in {source!r}")
        if any(a is GAP and b is GAP for a, b in zip(children, children[1:])):
            raise ParseError(f"doubled gap mark in {source!r}")
    return tuple(children)


def parse_tree(text: str) -> Tree:
    body = text.strip()
    tree, pos, _ = _parse_node(body, 0, 0)
    if pos != len(body):
        raise ParseError(f"trailing characters in tree encoding: {text!r}")
    return tree


def _parse_node(s: str, pos: int, count: int) -> tuple[Tree, int, int]:
    """The node that opens at ``pos``, the position after it, and the count
    of non-root vertices read so far, ``count`` of them before this node:
    only the root is read at count 0.  Each child is counted, and the
    count held to the NC cap, before the child is read."""
    if pos >= len(s) or s[pos] != "(":
        raise ParseError(f"expected '(' at position {pos} in {s!r}")
    at_root = count == 0
    pos += 1
    children = []
    while pos < len(s) and s[pos] in "(|":
        if s[pos] == GAP:
            children.append(GAP)
            pos += 1
        else:
            count += 1
            check_enumeration_size("nc", count)
            child, pos, count = _parse_node(s, pos, count)
            children.append(child)
    if pos >= len(s) or s[pos] != ")":
        raise ParseError(f"expected ')' at position {pos} in {s!r}")
    return _checked_node(children, at_root, s), pos + 1, count


def tree_to_json(t: Tree) -> list:
    return [GAP if child is GAP else tree_to_json(child) for child in t]


# ---------------------------------------------------------------------------
# hierarchy map


def gapped_hierarchy_tree(p: NonCrossingPartition) -> Tree:
    """The block-nesting tree of a non-crossing partition, with an extra
    unlabeled root above the outermost blocks and a gap mark between two
    sibling blocks wherever their parent block has an element between them.

    One left-to-right scan of the carrier: a block's first element opens
    it as a child of the innermost open block; a later element can only
    belong to that innermost block (no crossings), marks a gap after the
    children seen so far, and closes the block if it is the last one."""
    blocks = p.blocks
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    kids: list[list] = [[] for _ in blocks]
    top: list[int] = []
    open_blocks: list[int] = []
    for x in sorted(owner):
        i = owner[x]
        block = blocks[i]
        if x == block[0]:
            (kids[open_blocks[-1]] if open_blocks else top).append(i)
            if len(block) > 1:
                open_blocks.append(i)
            continue
        row = kids[i]
        if x == block[-1]:
            open_blocks.pop()
            if row and row[-1] is GAP:
                row.pop()
        elif row and row[-1] is not GAP:
            row.append(GAP)

    def build(row: list) -> Tree:
        return tuple(GAP if i is GAP else build(kids[i]) for i in row)

    return build(top)


def hierarchy_tree(p: NonCrossingPartition) -> Tree:
    """The bare block-nesting tree: the gapped hierarchy tree with its
    marks erased."""
    return erase_gaps(gapped_hierarchy_tree(p))


# ---------------------------------------------------------------------------
# admissible cuts


# verify tree-consistency at its ceiling reads 539 trees
EDGE_CUTS_BOUND = 1024


@lru_cache(maxsize=EDGE_CUTS_BOUND)
def admissible_edge_cuts(t: Tree) -> tuple[tuple[EdgePath, ...], ...]:
    """Every admissible cut of the tree, a set of edges meeting each
    root-to-leaf path at most once, as the sorted tuple of its edges; an
    edge is named by the child-index path of its arrival vertex.  The empty
    cut comes first, then the others in lexicographic order.  Marks are
    never cut."""
    return tuple(sorted(tuple(sorted(edges)) for edges in _cut_sets(t, ())))


def _cut_sets(t: Tree, prefix: EdgePath):
    """All admissible edge sets of the subtree at ``prefix``: per child,
    either cut its edge (closing every path through it) or leave it and
    choose an admissible set inside it (which may be empty)."""
    combos = [()]
    for i, child in enumerate(t):
        if child is GAP:
            continue
        path = prefix + (i,)
        options = [(path,)]
        options.extend(_cut_sets(child, path))
        combos = [acc + choice for acc in combos for choice in options]
    return combos


# ---------------------------------------------------------------------------
# tree coproduct


def _split_cut(node: Tree, cut: set, prefix: EdgePath, forest: list) -> Tree:
    """The rooted part of ``node`` under ``cut``: the node without its cut
    subtrees, each mark kept only where it still separates two remaining
    siblings.  Each maximal run of consecutive cut siblings, ended by a mark,
    a kept sibling or the end of the node, goes to ``forest`` as one tree
    under a new root, in left-to-right planar order."""
    kept = []
    run: list[Tree] = []
    for i, child in enumerate(node):
        path = prefix + (i,)
        if path in cut:
            run.append(child)
            continue
        if run:
            forest.append(tuple(run))
            run = []
        if child is not GAP:
            kept.append(_split_cut(child, cut, path, forest))
        elif kept and kept[-1] is not GAP:
            kept.append(GAP)
    if run:
        forest.append(tuple(run))
    if kept and kept[-1] is GAP:
        kept.pop()
    return tuple(kept)


def tree_coproduct(t: Tree) -> LinComb:
    """Sum over admissible cuts of rooted part ⊗ pruned forest, keyed by
    (Tree, Forest) pairs; includes t ⊗ 1 (empty cut) and 1 ⊗ t (crown cut)."""
    out: LinComb = {}
    for cut in admissible_edge_cuts(t):
        forest: list[Tree] = []
        rooted = _split_cut(t, set(cut), (), forest)
        add_into(out, (rooted, tuple(forest)), 1)
    return out


def _tree_pair_text(key) -> str:
    rooted, pruned = key
    return f"{tree_text(rooted)} ⊗ {forest_text(pruned)}"


def tree_tensor_text(terms: LinComb) -> str:
    """Canonical text of a coproduct value on trees."""
    return lincomb_text(terms, _tree_pair_text)
