import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nc_hopf.coefficients import (
    ONE,
    ZERO,
    Poly,
    coeff_str,
    fraction_str,
    parse_fraction,
    poly_str,
    sorted_monomials,
)
from nc_hopf.errors import ParseError


def const(value) -> Poly:
    """The constant polynomial ``value``."""
    return Poly({(): value})


def power(p: Poly, n: int) -> Poly:
    """``p`` to the power ``n`` >= 0, by repeated products."""
    result = const(1)
    for _ in range(n):
        result = result * p
    return result


def test_var_and_const():
    x = Poly.var("x")
    assert poly_str(x) == "x"
    assert poly_str(const(Fraction(3, 2))) == "3/2"
    assert const(0) == 0
    assert not const(0)


def test_mixed_arithmetic_with_fractions():
    x = Poly.var("x")
    p = 2 * x + Fraction(1, 2)
    q = p - x - x
    assert q == Fraction(1, 2)
    assert q.terms == {(): Fraction(1, 2)}


def test_cancellation_leaves_no_zero_terms():
    x = Poly.var("x")
    assert (x - x).terms == {}
    assert (x * 0).terms == {}


def test_power():
    x, y = Poly.var("x"), Poly.var("y")
    assert poly_str((x + y) * (x + y)) == "x^2 + 2*x*y + y^2"
    assert x * x * x == Poly({(("x", 3),): 1})
    assert poly_str(x * y * x) == "x^2*y"


def test_canonical_order_degree_first_then_reverse_lex():
    k1, k2, k3, k4 = (Poly.var(f"k{i}") for i in range(1, 5))
    p = (k4 + 4 * k1 * k3 + 2 * power(k2, 2) + 6 * power(k1, 2) * k2
         + power(k1, 4))
    assert poly_str(p) == "k1^4 + 6*k1^2*k2 + 2*k2^2 + 4*k1*k3 + k4"


def test_negative_and_fractional_coefficients():
    x = Poly.var("x")
    p = -power(x, 2) + Fraction(1, 3) * x - 2
    assert poly_str(p) == "-x^2 + 1/3*x - 2"


def test_coeff_str_dispatch():
    assert coeff_str(Fraction(-5, 3)) == "-5/3"
    assert coeff_str(Poly.var("a")) == "a"


def test_fraction_parsing():
    assert parse_fraction("7/2") == Fraction(7, 2)
    assert parse_fraction(" -3 ") == -3
    assert parse_fraction("+5") == 5
    assert parse_fraction("\t-0/7\n") == 0
    for bad in ("x", "1/0", "", "1.5", "1_000", "1e300000", "1 / 2", "2/-3",
                "+-1", "\u0661", ".5"):
        with pytest.raises(ParseError):
            parse_fraction(bad)


def test_numbers_past_the_int_string_limit_are_read_and_printed():
    # past the interpreter's default limit on int <-> str (4300 digits)
    big = 10 ** 9000 - 1
    assert parse_fraction("9" * 9000) == big
    assert parse_fraction("-1/" + "9" * 9000) == Fraction(-1, big)
    assert fraction_str(Fraction(big, 2)) == "9" * 9000 + "/2"
    assert fraction_str(Fraction(-1, big ** 2)) \
        == "-1/" + "9" * 8999 + "8" + "0" * 8999 + "1"
    for n in (10 ** 602, 2 ** 2000, 2 ** 2001, 10 ** 5000 + 1):
        assert parse_fraction(fraction_str(Fraction(n))) == n


def test_sorted_monomials_stable():
    p = Poly.var("a") * Poly.var("b") + Poly.var("c")
    assert sorted_monomials(p) == sorted_monomials(p)


def test_hash_consistent_with_equality():
    p = Poly.var("x") + 1
    q = 1 + Poly.var("x")
    assert p == q and hash(p) == hash(q)


def test_integral_values_are_ints():
    assert type(ZERO) is int and type(ONE) is int
    p = Poly({(): Fraction(4, 2), (("x", 1),): Fraction(0), (("y", 1),): 0})
    assert p.terms == {(): 2} and type(p.terms[()]) is int
    assert type(const(Fraction(6, 3)).terms[()]) is int
    assert type((Poly.var("x") * Fraction(1, 2) * 2).terms[(("x", 1),)]) \
        is int
    assert const(Fraction(1, 2)).terms == {(): Fraction(1, 2)}


def test_parse_fraction_keeps_integers_int():
    for text, value in (("6/3", 2), ("-0", 0), ("5", 5), ("-4/2", -2)):
        assert parse_fraction(text) == value
        assert type(parse_fraction(text)) is int
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert type(parse_fraction("1/2")) is Fraction


@pytest.mark.parametrize("number", [0, 2, -7, Fraction(2), Fraction(-1, 3)])
def test_constant_poly_equals_and_hashes_as_its_number(number):
    p = const(number)
    assert p == number and number == p
    assert hash(p) == hash(number)
    assert len({p, number}) == 1


def test_no_true_division_in_src():
    # an int / int is a float: exact arithmetic uses Fraction(p, q) or //
    root = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


names = st.sampled_from(["x", "y", "z"])
fractions = st.fractions(min_value=-30, max_value=30, max_denominator=6)


@st.composite
def polys(draw):
    terms = draw(st.lists(st.tuples(
        st.lists(names, max_size=3), fractions), max_size=4))
    p = const(0)
    for varlist, coeff in terms:
        mono = const(coeff)
        for name in varlist:
            mono = mono * Poly.var(name)
        p = p + mono
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)


@given(polys(), st.dictionaries(names, fractions, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_string_form_evaluates_back(p, point):
    """Evaluating the canonical text at a rational point must agree with
    direct evaluation of the polynomial, so printing loses nothing."""
    def evaluate(poly):
        total = Fraction(0)
        for mono, c in poly.terms.items():
            term = c
            for name, e in mono:
                term *= point[name] ** e
            total += term
        return total

    text = poly_str(p)
    rebuilt = Fraction(0)
    # parse the rendered form with a tiny evaluator over +, -, *, ^
    for signed in text.replace(" - ", " + -").split(" + "):
        if signed == "0":
            continue
        factor = Fraction(1)
        body = signed
        if body.startswith("-"):
            factor, body = -factor, body[1:]
        for part in body.split("*"):
            if "^" in part:
                name, exp = part.split("^")
                factor *= point[name] ** int(exp)
            elif part and part[0].isalpha():
                factor *= point[part]
            else:
                factor *= Fraction(part)
        rebuilt += factor
    assert rebuilt == evaluate(p)


# coefficients whose sums cancel (1/2 - 1/2) or are integral (1/2 + 3/2),
# and whose products are integral (2 * 1/2, 3/2 * 2/3)
normal_coefficients = st.sampled_from(
    [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
     Fraction(-3, 2), Fraction(2, 3), Fraction(-2, 3)])
monomials = st.lists(st.tuples(names, st.integers(1, 2)), max_size=2,
                     unique_by=lambda pair: pair[0]).map(
    lambda pairs: tuple(sorted(pairs)))
term_polys = st.dictionaries(monomials, normal_coefficients,
                             max_size=4).map(Poly)
scalars = st.one_of(st.integers(-3, 3), normal_coefficients)


def reference(pairs) -> Poly:
    """The Poly that ``__init__`` builds from the summed pairs."""
    raw = {}
    for mono, c in pairs:
        raw[mono] = raw.get(mono, 0) + c
    return Poly(raw)


def product_pairs(p: Poly, q: Poly) -> list:
    def times(a, b):
        exps = dict(a)
        for name, e in b:
            exps[name] = exps.get(name, 0) + e
        return tuple(sorted(exps.items()))
    return [(times(ma, mb), ca * cb) for ma, ca in p.terms.items()
            for mb, cb in q.terms.items()]


def assert_normal(result: Poly, expected: Poly):
    assert type(result) is Poly
    for c in result.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert result.terms == expected.terms


@given(term_polys, st.one_of(term_polys, scalars))
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_are_normal(p, other):
    q = other if isinstance(other, Poly) else const(other)
    negated = [(mono, -c) for mono, c in q.terms.items()]
    plus = reference([*p.terms.items(), *q.terms.items()])
    times = reference(product_pairs(p, q))
    assert_normal(p + other, plus)
    assert_normal(other + p, plus)
    assert_normal(p - other, reference([*p.terms.items(), *negated]))
    assert_normal(other - p, reference(
        [*q.terms.items(), *((mono, -c) for mono, c in p.terms.items())]))
    assert_normal(-p, reference((mono, -c) for mono, c in p.terms.items()))
    assert_normal(p * other, times)
    assert_normal(other * p, times)
    assert_normal(p - p, Poly())


def test_fraction_str():
    assert fraction_str(Fraction(4)) == "4"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"
