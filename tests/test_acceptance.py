"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  All arithmetic is exact; there are no tolerances.
"""

import random
from fractions import Fraction
from itertools import product

from nc_hopf.coefficients import poly_str
from nc_hopf.partitions import (
    NonCrossingPartition,
    enumerate_nc_partitions,
    enumerate_set_partitions,
)
from nc_hopf.tensor import DecoratedNC, Word, delta_nc, tensor_text
from nc_hopf.transforms import (
    CLASSICAL,
    FREE,
    MultiMomentMap,
    classical_moments_from_cumulants,
    generalized_free_cumulants,
    kappa_powers,
    symbolic_cumulants,
    _free_moments_fixed_point,
    _free_moments_series,
    _nc_count,
    _type_sums,
)
from nc_hopf.trees import hierarchy_tree, tree_coproduct
from nc_hopf.verify import (
    verify_character_bijection,
    verify_coassociativity,
    verify_halfshuffle,
    verify_keyrell,
    verify_moebius,
    verify_roundtrip,
    verify_semicircular,
    verify_sp_morphism,
    verify_tree_consistency,
    verify_unshuffle,
)


def report(number: int, ok: bool, description: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def from_suite(number: int, suite_report, description: str):
    detail = "" if suite_report.passed else \
        " [" + "; ".join(f"{c.label}: {c.detail}"
                         for c in suite_report.failures()) + "]"
    report(number, suite_report.passed, description + detail)


def test_criterion_01_enumeration():
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    bell = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    ok = all(len(enumerate_nc_partitions(n)) == catalan[n - 1]
             for n in range(1, 11)) and \
        all(len(enumerate_set_partitions(n)) == bell[n - 1]
            for n in range(1, 11))
    report(1, ok, "|NC_n| Catalan and |P_n| Bell for n=1..10")


def test_criterion_02_classical_tables():
    expected = [
        "c1",
        "c1^2 + c2",
        "c1^3 + 3*c1*c2 + c3",
        "c1^4 + 6*c1^2*c2 + 3*c2^2 + 4*c1*c3 + c4",
        "c1^5 + 10*c1^3*c2 + 15*c1*c2^2 + 10*c1^2*c3 + 10*c2*c3"
        " + 5*c1*c4 + c5",
    ]
    m = classical_moments_from_cumulants(symbolic_cumulants(5, CLASSICAL))
    got = [poly_str(m.moment(n)) for n in range(1, 6)]
    report(2, got == expected, "symbolic B_1..B_5 character-for-character")


def test_criterion_03_free_tables_three_routes():
    expected = [
        "k1",
        "k1^2 + k2",
        "k1^3 + 3*k1*k2 + k3",
        "k1^4 + 6*k1^2*k2 + 2*k2^2 + 4*k1*k3 + k4",
    ]
    k = symbolic_cumulants(4, FREE)
    routes = {
        "nc-moebius": _type_sums(k.cumulant, 4, _nc_count),
        "fixed-point": _free_moments_fixed_point(k),
        "series": _free_moments_series(k),
    }
    ok = all([poly_str(v) for v in vals] == expected
             for vals in routes.values())
    c4 = classical_moments_from_cumulants(
        symbolic_cumulants(4, CLASSICAL)).moment(4)
    k4 = routes["nc-moebius"][3]
    diverges = (c4.terms[(("c2", 2),)] == 3
                and k4.terms[(("k2", 2),)] == 2)
    report(3, ok and diverges,
           "m_1..m_4 via three routes; 3c2^2 vs 2k2^2 divergence")


def test_criterion_04_coproduct_goldens():
    cases = {
        "{1,4}{2,3}":
            "1 ⊗ {1,4}{2,3} + {1,2} ⊗ {1,2} + {1,4}{2,3} ⊗ 1",
        "{1,5}{2}{3,4}":
            "1 ⊗ {1,5}{2}{3,4} + {1,2} ⊗ {1}{2,3} + {1,3}{2} ⊗ {1,2} + "
            "{1,4}{2,3} ⊗ {1} + {1,5}{2}{3,4} ⊗ 1",
        "{1,2}{3}{4}":
            "1 ⊗ {1,2}{3}{4} + {1,2} ⊗ {1}{2} + 2·{1,2}{3} ⊗ {1} + "
            "{1,2}{3}{4} ⊗ 1 + {1} ⊗ {1,2}{3} + {1} ⊗ {1,2}|{1} + "
            "{1}{2} ⊗ {1,2}",
    }
    from nc_hopf.partitions import parse_partition
    ok = True
    for text, expected in cases.items():
        shape = parse_partition(text)
        got = tensor_text(delta_nc(
            DecoratedNC(NonCrossingPartition(shape.blocks))))
        ok = ok and got == expected
    report(4, ok, "three worked coproduct expansions, bar term and "
                  "coefficient 2 included")


def test_criterion_05_coassociativity():
    from_suite(5, verify_coassociativity(max_degree=6),
               "coassociativity for NC_n (n<=6) and 3-letter words "
               "(length<=6)")


def test_criterion_06_unshuffle_axioms():
    from_suite(6, verify_unshuffle(max_degree=5),
               "half-coproduct axioms and product compatibilities to "
               "degree 5, halves rebuild the coproduct")


def test_criterion_07_dual_shuffle_axioms():
    from_suite(7, verify_halfshuffle(max_degree=6),
               "shuffle axioms for 100 random functional triples per "
               "algebra, plus unit laws")


def test_criterion_08_splitting_morphism():
    from_suite(8, verify_sp_morphism(max_word_len=6),
               "splitting map intertwines full and half coproducts; dual "
               "preserves the three products")


def test_criterion_09_character_bijection():
    from_suite(9, verify_character_bijection(truncation=8),
               "exp = fixed point at N=8, character check, generator "
               "recovery, commutation with the splitting pullback")


def test_criterion_10_block_product_evaluation():
    from_suite(10, verify_keyrell(max_n=6),
               "fixed point with one-block section evaluates as block "
               "products; the lattice solve equals the first-block "
               "recursion")


def test_criterion_11_round_trips():
    from_suite(11, verify_roundtrip(order=8),
               "moments <-> cumulants round trips, both flavors, 50 "
               "random sequences at N=8")


def test_criterion_12_semicircular():
    from_suite(12, verify_semicircular(order=8),
               "cumulants (0,1,0,...) give Catalan even moments, zero "
               "odd moments, against a brute-force pairing count")


def test_criterion_13_tree_consistency():
    displays_ok = True
    crown = hierarchy_tree(NonCrossingPartition.of([[1, 2], [3, 4], [5, 6]]))
    t1, t2 = ((),), ((), ())
    displays_ok &= tree_coproduct(crown) == {
        (crown, ()): Fraction(1), ((), (crown,)): Fraction(1),
        (t2, (t1,)): Fraction(3), (t1, (t2,)): Fraction(2),
        (t1, (t1, t1)): Fraction(1)}
    nested = hierarchy_tree(NonCrossingPartition.of([[1, 3], [2], [4, 5]]))
    chain = (((),),)
    displays_ok &= tree_coproduct(nested) == {
        (nested, ()): Fraction(1), ((), (nested,)): Fraction(1),
        (chain, (t1,)): Fraction(1), (t2, (t1,)): Fraction(1),
        (t1, (chain,)): Fraction(1), (t1, (t1, t1)): Fraction(1)}
    suite = verify_tree_consistency(max_n=6)
    ok = displays_ok and suite.passed
    detail = "" if suite.passed else \
        " [" + "; ".join(f"{c.label}: {c.detail}"
                         for c in suite.failures()) + "]"
    # The transport runs through the gapped hierarchy map: a gap mark
    # records that a parent block has an element between two sibling blocks.
    # Bare trees cannot carry the coproduct: {1,3,5}{2}{4} and {1,4,5}{2}{3}
    # share a bare tree while their transported coproducts differ.  Their
    # gapped trees, ((()|())) and ((()())), tell them apart.
    report(13, ok, "worked tree coproduct displays, collision, and "
                   "exhaustive transport for n<=6" + detail)


def test_criterion_14_moebius_closed_forms():
    from_suite(14, verify_moebius(max_n=7),
               "signed Catalan / factorial Möbius values via the generic "
               "interval recursion, n<=7")


def test_criterion_15_multivariate_cumulants():
    alphabet = ("a", "b", "c", "d", "e")

    def phi_fn(w):
        r = random.Random(f"acceptance15:{'.'.join(w)}")
        return Fraction(r.randint(-9, 9), r.randint(1, 4))

    phi = MultiMomentMap(alphabet, 5, {
        w: phi_fn(w) for n in range(1, 6) for w in product(alphabet, repeat=n)})
    # the transform itself cross-checks the recursive solve against the
    # fixed-point extraction and raises on any disagreement
    r = generalized_free_cumulants(phi)

    # independent in-test solve restricted to distinct-letter words
    def brute(w, cache={}):
        if w in cache:
            return cache[w]
        total = phi.value(w)
        for shape in enumerate_nc_partitions(len(w)):
            if len(shape.blocks) == 1:
                continue
            total -= kappa_powers(shape, w, brute)
        cache[w] = total
        return total

    ok = True
    from itertools import permutations
    for n in range(1, 6):
        for letters in permutations(alphabet, n):
            w = Word(letters)
            ok = ok and r.value(w) == brute(w)
    report(15, ok, "generalized cumulants: fixed-point route equals the "
                   "brute-force solve on distinct-letter words, n<=5")
