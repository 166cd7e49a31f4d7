"""Fuzzing of every text and JSON reader: each input is either rejected with
a domain error (``NcHopfError``) or read to a value that reads back, from
its own encoding, to an equal value.  Anything else, a stray ``ValueError``
or ``KeyError`` say, fails the property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_hopf.coefficients import coeff_str
from nc_hopf.errors import NcHopfError
from nc_hopf.partitions import (
    NonCrossingPartition,
    SetPartition,
    enumerate_nc_partitions,
    enumerate_set_partitions,
    parse_partition,
)
from nc_hopf.tensor import parse_word
from nc_hopf.transforms import (
    FREE,
    cumulant_sequence_from_json,
    moment_sequence_from_json,
    multi_moment_map_from_json,
)
from nc_hopf.trees import (
    gapped_hierarchy_tree,
    parse_tree,
    tree_text,
)

FUZZ = settings(max_examples=150, deadline=None)


@st.composite
def near_misses(draw, valid, alphabet: str):
    """A valid encoding with up to three characters inserted or deleted."""
    text = draw(valid)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        if i < len(text) and draw(st.booleans()):
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(alphabet)) + text[i:]
    return text


def fuzz_text(valid, alphabet: str, max_size: int = 30):
    return st.one_of(near_misses(valid, alphabet),
                     st.text(alphabet=alphabet, max_size=max_size),
                     st.text(max_size=12))


SHAPES = [p for n in range(1, 6) for p in enumerate_set_partitions(n)]
# the same shapes on two-digit carriers, and with a carrier suffix, which
# the reader rejects
MOVED = [SetPartition(tuple(tuple(x + 9 for x in b) for b in p.blocks))
         for p in SHAPES]
partition_texts = st.sampled_from(
    [p.text() for p in SHAPES + MOVED]
    + [f"{p.text()} on {{{','.join(map(str, p.carrier))}}}" for p in MOVED])
word_texts = st.lists(st.sampled_from(["a", "b", "cd"]), min_size=1,
                      max_size=5).map(".".join)
NC_SHAPES = [p for n in range(1, 5) for p in enumerate_nc_partitions(n)]
tree_texts = st.sampled_from(
    [tree_text(gapped_hierarchy_tree(p)) for p in NC_SHAPES])


def read_or_reject(read, data):
    """``read(data)``, or None when it raises a domain error."""
    try:
        return read(data)
    except NcHopfError:
        return None


@pytest.mark.parametrize("noncrossing", [True, False])
@given(text=fuzz_text(partition_texts, "{},0123456789 \t on"))
@FUZZ
def test_parse_partition(noncrossing, text):
    p = read_or_reject(lambda t: parse_partition(t, noncrossing), text)
    if p is not None:
        kind = NonCrossingPartition if noncrossing else SetPartition
        assert type(p) is kind
        assert parse_partition(p.text(), noncrossing) == p


@given(text=fuzz_text(word_texts, "ab.c \t"))
@FUZZ
def test_parse_word(text):
    w = read_or_reject(parse_word, text)
    if w is not None:
        assert parse_word(".".join(w)) == w


@given(text=fuzz_text(tree_texts, "()| ", max_size=40))
@FUZZ
def test_parse_tree(text):
    t = read_or_reject(parse_tree, text)
    if t is not None:
        assert parse_tree(tree_text(t)) == t


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

fraction_texts = st.text(max_size=4) | st.sampled_from(
    ["1", "0", "-2", "3/4", " 5 ", "1/0", "x", "", "1.5", "2/-3"])
sequence_json = json_values | st.builds(
    lambda v: {"values": v},
    st.lists(fraction_texts, max_size=5) | json_values)


@given(data=sequence_json)
@FUZZ
def test_moment_sequence_from_json(data):
    seq = read_or_reject(moment_sequence_from_json, data)
    if seq is not None:
        # written as the file lists them, from m_1 on
        text = {"values": [coeff_str(v) for v in seq.values[1:]]}
        assert moment_sequence_from_json(text) == seq


@given(data=sequence_json)
@FUZZ
def test_cumulant_sequence_from_json(data):
    seq = read_or_reject(lambda d: cumulant_sequence_from_json(d, FREE), data)
    if seq is not None:
        text = {"values": [coeff_str(v) for v in seq.values]}
        assert cumulant_sequence_from_json(text, FREE) == seq


letters = st.sampled_from(["a", "b", "", "a.b", "c"])
table_json = st.builds(
    lambda alphabet, values: {"alphabet": alphabet, "values": values},
    st.lists(letters, max_size=3) | json_values,
    st.dictionaries(st.sampled_from(["a", "b", "a.a", "a.b", "b.a", "b.b",
                                     "", "c", "a..b"]),
                    fraction_texts, max_size=6) | json_values)


@given(data=json_values | table_json)
@FUZZ
def test_multi_moment_map_from_json(data):
    phi = read_or_reject(multi_moment_map_from_json, data)
    if phi is not None:
        text = {"alphabet": list(phi.alphabet),
                "values": {".".join(k): coeff_str(v)
                           for k, v in phi.table.items()}}
        assert multi_moment_map_from_json(text) == phi
