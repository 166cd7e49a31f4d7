"""Value-type contract of the library's value classes: equality is decided
by the class and the fields, the hash agrees with equality, the frozen ones
refuse assignment, each prints as it always has, and copies and pickles are
rebuilt as equal values whose hash belongs to the process they live in.
A word is the plain tuple of its letters, and a decorated atom the plain
tuple of its shape's blocks and its word or None."""

import ast
import copy
import importlib
import io
import json
import os
import pickle
import pkgutil
import random
import re
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import nc_hopf
from nc_hopf.partitions import (
    NonCrossingPartition,
    Record,
    SetPartition,
    Value,
    enumerate_nc_partitions,
    enumerate_set_partitions,
)
from nc_hopf.cli import _barword_order, main
from nc_hopf.functionals import Algebra
from nc_hopf.tensor import (
    DecoratedNC,
    Word,
    barword_degree,
    barword_text,
    tensor_text,
)
from nc_hopf.coefficients import Poly
from nc_hopf.transforms import (
    CLASSICAL,
    FREE,
    CumulantSequence,
    MomentSequence,
    MultiCumulantMap,
    MultiMomentMap,
    classical_moments_from_cumulants,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
)
from nc_hopf.verify import Check, SuiteReport

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
    if type(value) is tuple and type(value[0]) is str:
        return Word(list(value))
    if type(value) is tuple:
        blocks, word = value
        return DecoratedNC(rebuilt(NonCrossingPartition(blocks)),
                           rebuilt(word) if word is not None else None)
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
    assert type(word) is tuple and word == ("a", "b")
    assert hash(word) == hash(("a", "b"))
    assert Word(iter("ab")) == word and Word(["a", "b"]) == word
    assert barword_text((word,)) == "a.b"
    with pytest.raises(ValueError):
        Word(())


@pytest.mark.parametrize("letters", [
    (1, 2), ("a", 1), ("a", None), ("a.b",), ("a", ""), ("a b",), (b"a",)])
def test_constructors_take_letters_only(letters):
    # a validating constructor rejects a letter that is not a str by
    # is_letter at once, not at a later cache miss
    with pytest.raises(ValueError):
        Word(letters)
    shape = enumerate_nc_partitions(len(letters))[0]
    with pytest.raises(ValueError):
        DecoratedNC(shape, letters)


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
    # a word prints as its tuple; the --json rows of a coproduct are sorted
    # by the text of each key with every word written Word(letters=...)
    assert repr(Word(("a", "b"))) == "('a', 'b')"
    assert _barword_order(Word(("a", "b"))) == "Word(letters=('a', 'b'))"
    assert _barword_order((Word(("a",)),)) == "(Word(letters=('a',)),)"
    a, ab = Word(("a",)), Word(("a", "b"))
    assert _barword_order(((), (a, ab))) == (
        "((), (Word(letters=('a',)), Word(letters=('a', 'b'))))")
    shape = enumerate_nc_partitions(2)[0]
    assert _barword_order(((DecoratedNC(shape),), ())) == (
        "((DecoratedNC(shape=NonCrossingPartition(blocks=((1, 2),)), "
        "word=None),), ())")


def test_tensor_text_tells_a_bar_word_from_a_pair():
    word = Word(("a", "b"))
    assert tensor_text({(word,): 1}) == "a.b"
    assert tensor_text({((word,), ()): 1}) == "a.b ⊗ 1"


def test_tensor_text_on_keys_of_one_letter_atoms():
    # a pair's first element is () or holds atoms; a bar word's first
    # element is an atom, a tuple of letters or of blocks and a word
    a, b = Word(("a",)), Word(("b",))
    assert tensor_text({(a,): 1}) == "a"
    assert tensor_text({(a, b): 1}) == "a|b"
    assert tensor_text({((), (a,)): 1}) == "1 ⊗ a"
    assert tensor_text({((a,), ()): 1}) == "a ⊗ 1"
    assert tensor_text({((a,), (a, b)): 2}) == "2·a ⊗ a|b"
    assert tensor_text({((), ()): 1}) == "1 ⊗ 1"
    assert tensor_text({(): 1}) == "1"
    shape = enumerate_nc_partitions(1)[0]
    x = DecoratedNC(shape, a)
    assert tensor_text({(x,): 1}) == "{1}:a"
    assert tensor_text({(x, DecoratedNC(shape, b)): 1}) == "{1}:a|{1}:b"
    assert tensor_text({((x,), ()): 1}) == "{1}:a ⊗ 1"
    # one-block and one-letter atoms, decorated and not, with unit legs
    one, pair, split = (DecoratedNC(NonCrossingPartition.of(blocks))
                        for blocks in ([[1]], [[1, 2]], [[1], [2]]))
    assert tensor_text({(one,): 1}) == "{1}"
    assert tensor_text({(split,): 1}) == "{1}{2}"
    assert tensor_text({(one, pair): 1}) == "{1}|{1,2}"
    assert tensor_text({((one,), ()): 1}) == "{1} ⊗ 1"
    assert tensor_text({((), (one,)): 1}) == "1 ⊗ {1}"
    assert tensor_text({((), (x,)): 1}) == "1 ⊗ {1}:a"
    assert tensor_text({((one,), (one, split)): 2}) == "2·{1} ⊗ {1}|{1}{2}"
    assert tensor_text({((x,), (x,)): 1}) == "{1}:a ⊗ {1}:a"


def test_a_decorated_atom_is_its_blocks_and_word():
    shape = NonCrossingPartition.of([[1, 3], [2]])
    x = DecoratedNC(shape, iter("aba"))
    assert type(x) is tuple and x == (((1, 3), (2,)), ("a", "b", "a"))
    assert hash(x) == hash((shape.blocks, ("a", "b", "a")))
    assert DecoratedNC(shape) == (((1, 3), (2,)), None)
    assert barword_text((x, DecoratedNC(shape))) == "{1,3}{2}:a.b.a|{1,3}{2}"
    assert barword_degree((x, DecoratedNC(shape))) == 6
    for word in (("a",), ("a", "b", "a", "b")):
        with pytest.raises(ValueError):
            DecoratedNC(shape, word)
    with pytest.raises(ValueError):
        DecoratedNC(NonCrossingPartition(()))


def test_nc_json_rows_keep_the_value_class_order():
    # coproduct nc --json sorts its rows by the text of each key with every
    # atom written DecoratedNC(shape=NonCrossingPartition(blocks=...), ...),
    # which here differs from the order of the rows' own text
    out = io.StringIO()
    assert main(["coproduct", "nc", "{1,2}{3}{4}", "--json"], out=out) == 0
    rows = [(r["coefficient"], r["left"], r["right"])
            for r in json.loads(out.getvalue())]
    assert rows == [
        ("1", "1", "{1,2}{3}{4}"), ("2", "{1,2}{3}", "{1}"),
        ("1", "{1,2}{3}{4}", "1"), ("1", "{1,2}", "{1}{2}"),
        ("1", "{1}{2}", "{1,2}"), ("1", "{1}", "{1,2}{3}"),
        ("1", "{1}", "{1,2}|{1}")]


def test_no_isinstance_against_word_in_src():
    # Word is a function that returns a plain tuple: isinstance(x, Word)
    # would raise TypeError, and only on the path that reaches it
    root = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")
                    and len(node.args) == 2):
                continue
            for name in ast.walk(node.args[1]):
                if (isinstance(name, ast.Name) and name.id == "Word"
                        or isinstance(name, ast.Attribute)
                        and name.attr == "Word"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# every value class, once: a function that builds a new instance, its
# fields, whether it is frozen (hashable, assignment refused) and its repr,
# which must not change (``coproduct nc --json`` sorts its rows by reprs)
NC = NonCrossingPartition
VALUE_CLASSES = [
    (lambda: SetPartition(((1, 3), (2,))), ("blocks",), True,
     "SetPartition(blocks=((1, 3), (2,)))"),
    (lambda: NC(((1, 4), (2, 3))), ("blocks",), True,
     "NonCrossingPartition(blocks=((1, 4), (2, 3)))"),
    (lambda: Algebra("words", ("a", "b")), ("kind", "alphabet"), True,
     "Algebra(kind='words', alphabet=('a', 'b'))"),
    (lambda: MomentSequence((1, Fraction(1, 2), 3)), ("values",), True,
     "MomentSequence(values=(1, Fraction(1, 2), 3))"),
    (lambda: CumulantSequence((1, Fraction(-2, 3)), "free"),
     ("values", "flavor"), True,
     "CumulantSequence(values=(1, Fraction(-2, 3)), flavor='free')"),
    (lambda: MultiMomentMap(("a",), 1, {("a",): 2}),
     ("alphabet", "order", "table"), True,
     "MultiMomentMap(alphabet=('a',), order=1, table={('a',): 2})"),
    (lambda: MultiCumulantMap(("a", "b"), 1,
                              {("a",): Fraction(1, 2), ("b",): 0}),
     ("alphabet", "order", "table"), True,
     "MultiCumulantMap(alphabet=('a', 'b'), order=1, "
     "table={('a',): Fraction(1, 2), ('b',): 0})"),
    (lambda: Check("unit law", False, "2 failing: a, b"),
     ("label", "ok", "detail"), False,
     "Check(label='unit law', ok=False, detail='2 failing: a, b')"),
    (lambda: SuiteReport("halfshuffle", [Check("A1", True)]),
     ("name", "checks"), False,
     "SuiteReport(name='halfshuffle', "
     "checks=[Check(label='A1', ok=True, detail='')])"),
]
CLASS_IDS = [expected.split("(", 1)[0] for _, _, _, expected in VALUE_CLASSES]


@pytest.mark.parametrize("make,fields,frozen,expected", VALUE_CLASSES,
                         ids=CLASS_IDS)
def test_value_class_repr_equality_and_hash(make, fields, frozen, expected):
    value, twin = make(), make()
    assert repr(value) == expected
    assert value == twin and not value != twin
    # the same fields on an object of another class never compare equal
    stand_in = types.SimpleNamespace(**{f: getattr(value, f) for f in fields})
    assert value != stand_in and stand_in != value
    if frozen:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("make,fields,frozen,expected", VALUE_CLASSES,
                         ids=CLASS_IDS)
def test_value_class_pickles_and_copies(make, fields, frozen, expected):
    value = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value) and loaded == value
        assert repr(loaded) == expected
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize("make,fields,frozen,expected", VALUE_CLASSES,
                         ids=CLASS_IDS)
def test_frozen_value_classes_refuse_assignment(make, fields, frozen,
                                                expected):
    value = make()
    if not frozen:  # a report is filled in as its checks run
        setattr(value, fields[0], getattr(make(), fields[0]))
        assert value == make()
        return
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make() and repr(value) == expected


def test_every_record_class_is_listed():
    # a value class of any module is checked above, itself or through the
    # listed class it derives from
    for info in pkgutil.iter_modules(nc_hopf.__path__):
        importlib.import_module(f"nc_hopf.{info.name}")
    listed = {type(make()) for make, _, _, _ in VALUE_CLASSES}
    found, unlisted = [Record], []
    while found:
        cls = found.pop()
        subclasses = cls.__subclasses__()
        found += subclasses
        unlisted += [sub.__qualname__ for sub in subclasses
                     if sub is not Value and not listed & set(sub.__mro__)]
    assert unlisted == []


def test_only_the_base_classes_define_the_value_contract():
    # immutability, pickling and unchecked construction are written once,
    # in Record and Value, and so are equality and hashing for every class
    # deriving from Record (Poly is not a Record and writes its own)
    root = Path(__file__).resolve().parents[1] / "src"
    contract = {"__setattr__", "__delattr__", "__reduce__", "_unchecked"}
    # the one exception: a moment table hashes without its table, a dict
    allowed = {"MultiMomentMap.__hash__"}
    found = []
    for path in sorted(root.rglob("*.py")):
        module = importlib.import_module(
            "nc_hopf" if path.stem == "__init__" else f"nc_hopf.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(node, ast.ClassDef)
                    or node.name in ("Record", "Value")):
                continue
            cls = getattr(module, node.name, None)
            names_held = contract
            if isinstance(cls, type) and issubclass(cls, Record):
                names_held = contract | {"__eq__", "__hash__"}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = {item.name}
                elif isinstance(item, ast.Assign):
                    names = {t.id for t in item.targets
                             if isinstance(t, ast.Name)}
                else:
                    continue
                found += [f"{path.name}:{item.lineno} {node.name}.{name}"
                          for name in sorted(names & names_held)
                          if f"{node.name}.{name}" not in allowed]
    assert found == []


@pytest.mark.parametrize("make,field,stored", [
    (lambda v: CumulantSequence(v, "free"), "values", (1, 2, 3)),
    (lambda v: CumulantSequence(v, "classical"), "values", (1, 2, 3)),
    (lambda v: MomentSequence([1, *v]), "values", (1, 1, 2, 3)),
    (lambda v: MultiMomentMap(["a", "b", "c"][:len(v)], 1,
                              {("a",): 1, ("b",): 2, ("c",): 3}),
     "alphabet", ("a", "b", "c")),
], ids=["free", "classical", "moments", "multi-moments"])
def test_sequences_and_alphabets_are_stored_as_tuples(make, field, stored):
    # a list handed in is copied to a tuple: the value hashes, and neither
    # the caller's list nor the field can change it afterwards
    given = [1, 2, 3]
    value = make(given)
    given.append(9)
    assert type(getattr(value, field)) is tuple
    assert getattr(value, field) == stored
    assert hash(value) == hash(make((1, 2, 3))) and value == make((1, 2, 3))
    with pytest.raises(AttributeError):
        getattr(value, field).append(9)


def test_moment_and_cumulant_maps_with_equal_fields_stay_unequal():
    moments = MultiMomentMap(("a",), 1, {("a",): 2})
    cumulants = MultiCumulantMap(("a",), 1, {("a",): 2})
    assert moments != cumulants and cumulants != moments


EXACT_MAKERS = [
    lambda v: MomentSequence((1, Fraction(1, 2), v)),
    lambda v: MomentSequence.of([v]),
    lambda v: CumulantSequence([1, v], "free"),
    lambda v: CumulantSequence([v], "classical"),
    lambda v: MultiMomentMap(("a", "b"), 1, {("a",): 1, ("b",): v}),
    lambda v: MultiCumulantMap(("a",), 1, {("a",): v}),
]
EXACT_IDS = ["moments", "moments-of", "free", "classical", "multi-moments",
             "multi-cumulants"]


@pytest.mark.parametrize("make", EXACT_MAKERS, ids=EXACT_IDS)
@pytest.mark.parametrize("value", [0.1, 2.0, "x", None, Decimal("0.5"),
                                   complex(1, 0)],
                         ids=["float", "integral-float", "str", "none",
                              "decimal", "complex"])
def test_inexact_values_are_refused_by_name(make, value):
    # a float would reach the transforms as an inexact value, and a str as
    # a bare TypeError deep inside them
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        make(value)


@pytest.mark.parametrize("make", EXACT_MAKERS, ids=EXACT_IDS)
@pytest.mark.parametrize("value", [3, -2, Fraction(-2, 3), Poly.var("m1")],
                         ids=["int", "negative", "fraction", "poly"])
def test_exact_values_are_kept_as_given(make, value):
    made = make(value)
    stored = (made.values if hasattr(made, "values")
              else tuple(made.table.values()))
    assert stored[-1] is value


@pytest.mark.parametrize("make", EXACT_MAKERS, ids=EXACT_IDS)
@pytest.mark.parametrize("value,stored", [
    (Fraction(4, 2), 2), (Fraction(-6, 3), -2), (True, 1), (False, 0)],
    ids=["integral-fraction", "negative-integral-fraction", "true", "false"])
def test_integral_values_are_stored_as_ints(make, value, stored):
    # the normal form of coefficients.exact: an integral value is an int,
    # and a Fraction has a denominator above 1
    made = make(value)
    kept = (made.values if hasattr(made, "values")
            else tuple(made.table.values()))
    assert type(kept[-1]) is int and kept[-1] == stored


def test_integral_fractions_reach_a_transform_as_ints():
    # with every denominator 1 the routes run on the values as stored
    moments = MomentSequence((Fraction(1), Fraction(4, 2)))
    assert moments.values == (1, 2)
    assert [type(v) for v in moments.values] == [int, int]
    cumulants = free_cumulants_from_moments(moments)
    assert cumulants.values == (2,) and type(cumulants.values[0]) is int
    moments = free_moments_from_cumulants(
        CumulantSequence((True, Fraction(3, 1)), FREE))
    assert moments.values == (1, 1, 4)
    assert [type(v) for v in moments.values] == [int, int, int]


@pytest.mark.parametrize("transform,flavor", [
    (free_moments_from_cumulants, FREE),
    (classical_moments_from_cumulants, CLASSICAL)], ids=["k2m", "c2m"])
def test_rationals_beside_a_poly_give_results_in_normal_form(transform,
                                                              flavor):
    # m_2 = c_1^2 + c_2 = 1/4 + 3/4 is a sum of Fractions alone
    moments = transform(
        CumulantSequence((Fraction(1, 2), Fraction(3, 4), Poly.var("x")),
                         flavor))
    assert moments.values[:3] == (1, Fraction(1, 2), 1)
    assert [type(v) for v in moments.values] == [int, Fraction, int, Poly]


def test_float_inputs_never_reach_a_transform():
    with pytest.raises(ValueError, match="0.1"):
        free_moments_from_cumulants(
            CumulantSequence([0.1, 0.2, 0.3, 0.7, 1.3, 2.9], FREE))
    with pytest.raises(ValueError, match="1.0"):
        MomentSequence((1.0, Fraction(1, 2)))


@pytest.mark.parametrize("cls", [MultiMomentMap, MultiCumulantMap])
def test_changing_the_table_leaves_the_map_unchanged(cls):
    made = cls(("a", "b"), 1, {("a",): 1, ("b",): 2})
    table = made.table
    table[("a",)] = 7
    del table[("b",)]
    made.table[("a",)] = 7
    assert made.table == {("a",): 1, ("b",): 2}
    assert made == cls(("a", "b"), 1, {("a",): 1, ("b",): 2})
    assert made.value(("a",)) == 1 and made.value(("b",)) == 2
    assert pickle.loads(pickle.dumps(made)) == made


def test_moment_map_keeps_a_copy_of_the_table():
    table = {("a",): 1, ("b",): 2}
    moments = MultiMomentMap(("a", "b"), 1, table)
    table[("a",)] = 0.5
    del table[("b",)]
    assert moments.table == {("a",): 1, ("b",): 2}
    assert moments.table is not table
