"""Value-type contract of the four hashable types: equality is decided by
the fields, the hash agrees with equality, and copies and pickles are
rebuilt as equal values whose hash belongs to the process they live in.
A Word is the tuple of its letters."""

import copy
import os
import pickle
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from nc_hopf.partitions import (
    NonCrossingPartition,
    SetPartition,
    enumerate_nc_partitions,
    enumerate_set_partitions,
)
from nc_hopf.tensor import DecoratedNC, Word, tensor_text

MAX_N = 6


def sample_values() -> list:
    """Every shape with n <= MAX_N, as a set partition and (when it does not
    cross) as a non-crossing one, with words over ``abc``: every word for
    n <= 3, and three seeded ones per shape above."""
    rng = random.Random(7)
    values = []
    for n in range(1, MAX_N + 1):
        values += enumerate_set_partitions(n)
        words = [Word(ls) for ls in product("abc", repeat=n)] if n <= 3 else []
        values += words
        for shape in enumerate_nc_partitions(n):
            decorations = words or [
                Word(tuple(rng.choice("abc") for _ in range(n)))
                for _ in range(3)]
            values.append(shape)
            values.append(DecoratedNC(shape))
            values += [DecoratedNC(shape, w) for w in decorations]
    return values


def rebuilt(value):
    """An equal value built again through the constructors, from new
    tuples of the same letters or elements."""
    if isinstance(value, Word):
        return Word(tuple(list(value.letters)))
    if isinstance(value, DecoratedNC):
        word = rebuilt(value.word) if value.word is not None else None
        return DecoratedNC(rebuilt(value.shape), word)
    return type(value)(tuple(tuple(list(b)) for b in value.blocks))


def test_equal_values_hash_equal():
    for value in sample_values():
        twin = rebuilt(value)
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)


def test_set_and_noncrossing_partitions_stay_unequal():
    for n in range(1, MAX_N + 1):
        for p in enumerate_nc_partitions(n):
            q = SetPartition(p.blocks)
            assert p != q and q != p
            assert len({p, q}) == 2


def test_copies_keep_equality():
    for value in sample_values():
        for twin in (copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)


_DUMP = """
import pickle, sys
from test_value_types import sample_values
sys.stdout.buffer.write(pickle.dumps(sample_values()))
"""

_LOAD = """
import pickle, sys
from test_value_types import sample_values
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = sample_values()
index = {value: i for i, value in enumerate(loaded)}
print(all(value in index and loaded[index[value]] == value
          for value in fresh))
"""


def test_pickled_values_are_found_under_another_hash_seed():
    # string hashes differ between the two seeds, so a value that carried
    # its hash across processes would not be found as a key
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])

    def python(code, seed, data=b""):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code], input=data,
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    data = python(_DUMP, "1")
    assert python(_LOAD, "2", data).strip() == b"True"
    # and in this process, under its own seed
    assert pickle.loads(data) == sample_values()


def test_partition_size_is_stored_out_of_equality():
    for value in sample_values():
        if isinstance(value, SetPartition):
            assert value.size == len(value.carrier)
            assert "size" not in repr(value)
    p = SetPartition(((1, 3), (2,)))
    assert p.size == 3 and pickle.loads(pickle.dumps(p)).size == 3


def test_word_is_its_letter_tuple():
    word = Word(("a", "b"))
    assert isinstance(word, tuple) and word == ("a", "b")
    assert hash(word) == hash(("a", "b"))
    assert word.letters == ("a", "b") and type(word.letters) is tuple
    assert word.text() == str(word) == "a.b"


def test_word_is_immutable():
    word = Word(("a", "b"))
    for name in ("letters", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(word, name, ("c",))
    assert word == ("a", "b")


def test_word_never_equals_an_atom_of_another_kind_or_a_bar_word():
    for letters in (("a",), ("a", "b")):
        word = Word(letters)
        shape = enumerate_nc_partitions(len(letters))[0]
        for other in (DecoratedNC(shape, word), DecoratedNC(shape), (word,)):
            assert word != other and other != word
            assert len({word, other}) == 2


def test_word_repr():
    # the --json rows of a coproduct are sorted by the text of each key,
    # which holds this repr
    assert repr(Word(("a", "b"))) == "Word(letters=('a', 'b'))"
    assert str((Word(("a",)),)) == "(Word(letters=('a',)),)"


def test_tensor_text_tells_a_bar_word_from_a_pair():
    word = Word(("a", "b"))
    assert tensor_text({(word,): 1}) == "a.b"
    assert tensor_text({((word,), ()): 1}) == "a.b ⊗ 1"
