import importlib.util
import inspect
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import nc_hopf
import nc_hopf.verify
from nc_hopf.errors import NcHopfError
from nc_hopf.functionals import (
    NC,
    WORDS,
    Algebra,
    Character,
    random_functional,
    random_infinitesimal,
)
from nc_hopf.tensor import Word, barword_degree
from nc_hopf.transforms import MomentSequence
from nc_hopf.verify import (
    SUITES,
    SuiteReport,
    _elements,
    _rational,
    run_suite,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_report_plumbing():
    r = SuiteReport("demo")
    r.add("first", True)
    r.add("second", False, "broken at x")
    assert not r.passed
    assert len(r.failures()) == 1
    text = r.summary()
    assert "demo: FAIL" in text and "broken at x" in text


def test_passing_report_summary():
    r = SuiteReport("demo")
    r.add("only", True)
    assert r.passed and "PASS" in r.summary()


def test_run_suite_unknown_name():
    # bad input, so a domain error, which the CLI reports as such
    with pytest.raises(NcHopfError, match="unknown suite 'bogus'"):
        run_suite("bogus")


def test_run_suite_single():
    reports = run_suite("counting", 6)
    assert len(reports) == 1 and reports[0].passed


def test_all_suite_names_are_callable():
    assert set(SUITES) >= {"counting", "coassociativity", "unshuffle",
                           "halfshuffle", "sp-morphism", "keyrell",
                           "roundtrip", "tree-consistency", "moebius"}


def test_small_unshuffle_run():
    reports = run_suite("unshuffle", 3)
    assert reports[0].passed


@pytest.mark.parametrize("kind", [WORDS, NC])
def test_elements_come_in_non_decreasing_degree(kind):
    # unshuffle's D1/D2 pair loop stops at the first pair over its bound
    degrees = [barword_degree((atom,))
               for atom in _elements(kind, ("a", "b"), 6)]
    assert degrees == sorted(degrees) and degrees[-1] == 6


def test_small_halfshuffle_run():
    reports = run_suite("halfshuffle", 3)
    assert reports[0].passed


def test_size_bound_is_the_first_parameter_of_every_suite():
    # run_suite passes the bound positionally, and it is all a suite takes
    bounds = {"max_n", "max_degree", "max_word_len", "truncation", "order"}
    for name, (fn, _) in SUITES.items():
        params = list(inspect.signature(fn).parameters)
        assert len(params) == 1 and params[0] in bounds, name
    assert list(inspect.signature(run_suite).parameters) == ["name", "bound"]
    report, = run_suite("roundtrip", 3)
    assert report.passed and all("N=3" in c.label for c in report.checks)


@pytest.fixture
def ran(monkeypatch) -> list:
    """Every suite swapped for a stub that records its bound, each under
    its own ceiling; the calls, in order."""
    calls = []

    def stub(name):
        def suite(*bound):
            calls.append((name, *bound))
            return SuiteReport(name)
        return suite

    monkeypatch.setattr(nc_hopf.verify, "SUITES", {
        name: (stub(name), ceiling) for name, (_, ceiling) in SUITES.items()})
    return calls


@pytest.mark.parametrize("name,bound,message", [
    ("all", 1, "--max-degree applies to one suite, not 'all'"),
    ("counting", 0, "--max-degree for counting runs from 1 to 10, not 0"),
    ("moebius", 0, "--max-degree for moebius runs from 1 to 9, not 0")],
    ids=["all", "counting", "moebius"])
def test_bound_that_does_not_apply_raises_before_any_suite_runs(
        ran, name, bound, message):
    with pytest.raises(NcHopfError) as exc:
        run_suite(name, bound)
    assert str(exc.value) == message and ran == []


def test_bound_is_held_to_the_ceiling_of_the_suite(ran, monkeypatch):
    def tiny(bound=1):
        ran.append(("tiny", bound))
        return SuiteReport("tiny")

    monkeypatch.setitem(nc_hopf.verify.SUITES, "tiny", (tiny, 1))
    with pytest.raises(NcHopfError, match="runs from 1 to 1, not 2"):
        run_suite("tiny", 2)
    assert ran == []
    run_suite("tiny", 1)
    run_suite("counting", 10)
    run_suite("counting")
    assert ran == [("tiny", 1), ("counting", 10), ("counting",)]


def test_every_suite_has_a_default_and_a_ceiling():
    for name, (fn, ceiling) in SUITES.items():
        first = next(iter(inspect.signature(fn).parameters.values()))
        assert 1 <= first.default <= ceiling, name


def test_benchmark_bounds_are_within_the_ceilings():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bounds = [(argv[1], int(argv[argv.index("--max-degree") + 1]))
              for _, argv, _ in workloads.deck(workloads.CLI_COLD, 1, 0)
              if argv[0] == "verify" and "--max-degree" in argv]
    assert len(bounds) >= 7
    for name, bound in bounds:
        assert 1 <= bound <= SUITES[name][1], name


def test_one_trial_per_suite_runs_on_fraction_values():
    algebra = Algebra(WORDS, ("a", "b"))
    bars = [b for d in range(1, 4) for b in algebra.barwords(d)]
    for f in (random_functional(algebra, 3, seed=5),
              random_infinitesimal(algebra, 3, seed=6)):
        q = _rational(f)
        assert type(q) is type(f) and q.unit_value == f.unit_value == 0
        assert all(type(f(b)) is int and q(b) * 60 == f(b) for b in bars)
        assert any(type(q(b)) is Fraction and q(b).denominator > 1
                   for b in bars)


def test_semicircular_runs_the_transform_at_its_own_order(monkeypatch):
    seen = []
    real = nc_hopf.verify.free_moments_from_cumulants
    monkeypatch.setattr(nc_hopf.verify, "free_moments_from_cumulants",
                        lambda k: seen.append(k.values) or real(k))
    for order in (1, 2, 5):
        assert run_suite("semicircular", order)[0].passed
    assert seen == [(0,), (0, 1), (0, 1, 0, 0, 0)]


def layer_caches() -> dict:
    """Every callable with ``cache_info`` in the layer modules, by name."""
    return {f"{value.__module__}.{value.__qualname__}": value
            for name in nc_hopf._LAYERS
            for value in vars(getattr(nc_hopf, name)).values()
            if callable(getattr(value, "cache_info", None))}


def fill_caches() -> None:
    from nc_hopf.partitions import (admissible_splits,
                                    enumerate_nc_partitions, parse_partition)
    from nc_hopf.tensor import DecoratedNC, Word, delta_bar, delta_word
    from nc_hopf.transforms import (CLASSICAL,
                                    classical_moments_from_cumulants,
                                    symbolic_cumulants)
    from nc_hopf.trees import gapped_hierarchy_tree, tree_coproduct
    shape = parse_partition("{1,4}{2,3}{5}")
    admissible_splits(shape)
    delta_bar((DecoratedNC(shape),), "full")
    delta_word(Word(("a", "b")))
    delta_word(Word("abcdefg"))
    tree_coproduct(gapped_hierarchy_tree(shape))
    enumerate_nc_partitions(3)
    classical_moments_from_cumulants(symbolic_cumulants(3, CLASSICAL))


def test_clear_caches_empties_every_layer_cache():
    fill_caches()
    caches = layer_caches()
    assert len(caches) >= 7
    assert all(fn.cache_info().currsize for fn in caches.values())
    nc_hopf.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()
            } == dict.fromkeys(caches, 0)


def test_all_empties_the_caches_after_each_suite(monkeypatch):
    seen = []

    def suite():
        seen.append(sum(fn.cache_info().currsize
                        for fn in layer_caches().values()))
        fill_caches()
        return SuiteReport("filled")

    monkeypatch.setattr(nc_hopf.verify, "SUITES",
                        {"a": (suite, 1), "b": (suite, 1)})
    assert [r.name for r in run_suite("all")] == ["filled", "filled"]
    assert seen[1] == 0
    assert sum(fn.cache_info().currsize for fn in layer_caches().values()) == 0


def test_keyrell_fails_when_its_lattice_drops_a_shape(monkeypatch):
    # a verify that reads NC(4) without {1,4}{2,3} must fail keyrell: the
    # first check counts 13 shapes of NC(4), and the lattice solve then
    # disagrees with the first-block recursion, which reads no partition,
    # on every subword of 4 letters or more
    dropped = ((1, 4), (2, 3))
    calls = []

    def drop(real, blocks_of):
        def enumerate_without(n):
            calls.append(n)
            return [p for p in real(n) if blocks_of(p) != dropped]
        return enumerate_without

    verify = nc_hopf.verify
    for name, blocks_of in (("_nc_shapes", lambda blocks: blocks),
                            ("enumerate_nc_partitions", lambda p: p.blocks)):
        real = getattr(verify, name, None)
        if real is not None:
            monkeypatch.setattr(verify, name, drop(real, blocks_of))
    report = verify.verify_keyrell(5)
    assert 4 in calls
    assert not report.passed
    failed = report.failures()
    assert [c.label for c in failed] == [
        "Psi(L⊗w) = block product of kappa (63 partitions)",
        "lattice solve = first-block recursion on 31 subwords, n ≤ 5"]
    assert failed[0].detail == "1 failing: |NC_4| = 13 ≠ Catalan(4) = 14"
    bad = failed[1].detail.split(": ", 1)[1].split(", ")
    assert "x1.x2.x3.x4" in bad
    assert all(len(word.split(".")) >= 4 for word in bad)


def test_free_pair_moments_on_alternating_words():
    # for free a and b: phi(ab) = phi(a) phi(b), and phi(abab) =
    # phi(a^2) phi(b)^2 + phi(a)^2 phi(b^2) - phi(a)^2 phi(b)^2
    moments = {"a": MomentSequence.of((Fraction(2, 3), 5, -1, 4)),
               "b": MomentSequence.of((-3, Fraction(1, 7), 2, 9))}
    table = nc_hopf.verify._free_pair_moments(moments, 4)
    (a1, a2), (b1, b2) = ((m.moment(1), m.moment(2))
                          for m in moments.values())
    assert table[("a", "a", "a")] == -1 and table[("b",) * 4] == 9
    assert table[("a", "b")] == table[("b", "a")] == a1 * b1
    assert table[("a", "a", "b")] == a2 * b1
    assert table[("a", "b", "a", "b")] == (
        a2 * b1 ** 2 + a1 ** 2 * b2 - a1 ** 2 * b1 ** 2)
    assert len(table) == 2 + 4 + 8 + 16


def test_sp_morphism_fails_when_sp_drops_a_shape(monkeypatch):
    # an Sp that reads NC(2) without its last shape breaks Δ∘Sp = (Sp⊗Sp)∘Δ
    # on every word of two letters or more, for each of the three coproducts
    real = nc_hopf.tensor._nc_shapes
    monkeypatch.setattr(nc_hopf.tensor, "_nc_shapes",
                        lambda n: real(n)[:-1] if n == 2 else real(n))
    report = nc_hopf.verify.verify_sp_morphism(3)
    words = [".".join(w) for n in (2, 3) for w in product("ab", repeat=n)]
    structural = [c for c in report.checks if c.label.startswith("structural")]
    assert [c.label.split()[1] for c in structural] == [
        "full", "left+", "right+"]
    assert [(c.ok, c.detail) for c in structural] == [
        (False, f"12 failing: {', '.join(words)}")] * 3


def test_tree_consistency_fails_through_the_bare_map(monkeypatch):
    # read through the bare map, the transport check fails on the one
    # marked shape up to 5 blocks
    monkeypatch.setattr(nc_hopf.verify, "gapped_hierarchy_tree",
                        nc_hopf.verify.hierarchy_tree)
    transport = nc_hopf.verify.verify_tree_consistency(5).checks[0]
    assert transport.label.startswith("coproducts agree through the gapped")
    assert (transport.ok, transport.detail) == (
        False, "1 failing: {1,3,5}{2}{4}")


def test_keyrell_freeness_fails_when_the_transform_drifts(monkeypatch):
    # verify reads its own binding of the first-block solve, so only the
    # multivariate transform sees the drift, and raises for it
    transforms = nc_hopf.transforms
    real = transforms._first_block_cumulants

    def drifted(moment, words):
        r = real(moment, words)
        longest = max(r, key=len)
        r[longest] += 1
        return r

    monkeypatch.setattr(transforms, "_first_block_cumulants", drifted)
    report = nc_hopf.verify.verify_keyrell(3)
    assert [c.ok for c in report.checks] == [True, True, False]
    assert report.checks[2].detail == (
        "generalized cumulants disagree at a.a.a: 2126 vs 2125")


def failed(report) -> list:
    """(label, detail) of each failed check of ``report``, in order."""
    return [(c.label, c.detail) for c in report.failures()]


def failing(names: list) -> str:
    return f"{len(names)} failing: {', '.join(names)}"


WORDS_TO_3 = ["a", "b", "a.a", "a.b", "b.a", "b.b"] + [
    ".".join(w) for w in product("ab", repeat=3)]


def test_unshuffle_fails_its_axioms_when_the_halves_swap(monkeypatch):
    # a left half read as the right one breaks C1, C2 and C3 on words of
    # three letters, and C1 and C3 on the one NC(3) shape whose halves are
    # not mirror images of each other; the halves still add up to Δ
    verify = nc_hopf.verify
    real = verify._reduced
    swap = {"left+": "right+", "right+": "left+", "full": "full"}
    monkeypatch.setattr(verify, "_reduced", lambda v: real(swap[v]))
    words_3 = WORDS_TO_3[6:]
    assert failed(verify.verify_unshuffle(3)) == [
        ("words: C1 up to degree 3", failing(words_3)),
        ("words: C2 up to degree 3",
         failing(["a.b.a", "a.b.b", "b.a.a", "b.a.b"])),
        ("words: C3 up to degree 3", failing(words_3)),
        ("nc: C1 up to degree 3", failing(["{1}{2}{3}"])),
        ("nc: C3 up to degree 3", failing(["{1}{2}{3}"]))]


def test_unshuffle_fails_halves_when_the_sum_drops_a_term(monkeypatch):
    # halves without b ⊗ 1 + 1 ⊗ b miss Δ(b) on every generator
    verify = nc_hopf.verify
    real = verify.lincomb_sum
    monkeypatch.setattr(verify, "lincomb_sum", lambda *c: real(*c[:-1]))
    assert failed(verify.verify_unshuffle(2)) == [
        ("words: halves up to degree 2", failing(WORDS_TO_3[:6])),
        ("nc: halves up to degree 2",
         failing(["{1}", "{1,2}", "{1}{2}"]))]


def test_unshuffle_fails_d1_and_d2_when_the_product_flips(monkeypatch):
    # Δ≺(ab) = Δ≺(a) Δ(b) read as Δ(b) Δ≺(a) fails on every product of two
    # distinct generators, and so does Δ≻
    verify = nc_hopf.verify
    real = verify.tensor_product
    monkeypatch.setattr(verify, "tensor_product", lambda a, b: real(b, a))
    report = verify.verify_unshuffle(3)
    words = [f"{x}|{y}" for x in WORDS_TO_3[:6] for y in WORDS_TO_3[:6]
             if x != y and len(x + y) <= 4]
    nc = ["{1}|{1,2}", "{1}|{1}{2}", "{1,2}|{1}", "{1}{2}|{1}"]
    assert len(words) == 18
    assert failed(report) == [
        ("words: D1 up to degree 3", failing(words)),
        ("words: D2 up to degree 3", failing(words)),
        ("nc: D1 up to degree 3", failing(nc)),
        ("nc: D2 up to degree 3", failing(nc))]


def test_halfshuffle_fails_a1_a2_a3_on_float_values(monkeypatch):
    # the trial on f / 60, computed in binary floating point, rounds each
    # side of every axiom apart on one bar word: a check on exact values
    # sees it
    verify = nc_hopf.verify
    monkeypatch.setattr(verify, "_rational", lambda f: type(f)(
        f.algebra, f.truncation, lambda b: f(b) / 60,
        unit_value=f.unit_value, name=f.name))
    assert failed(verify.verify_halfshuffle(3)) == [
        (f"words: {axiom} (100 triples, 1000 samples)",
         failing(["trial 0: b|a.b"])) for axiom in ("A1", "A2", "A3")]


def test_halfshuffle_fails_units_when_a_product_with_e_drifts(monkeypatch):
    # a half product with the counit e that comes out one too high breaks
    # the unit laws on every trial and every sample
    verify = nc_hopf.verify
    real = verify.half_convolve

    def drifted(f, g, side):
        h = real(f, g, side)
        if "e" not in (f.name, g.name):
            return h
        return type(h)(h.algebra, h.truncation, lambda b: h(b) + 1,
                       unit_value=h.unit_value, name=h.name)

    monkeypatch.setattr(verify, "half_convolve", drifted)
    assert failed(verify.verify_halfshuffle(1)) == [
        (f"{kind}: units (100 triples, 200 samples)",
         failing([f"trial {t}: {x}" for t in range(100) for x in atoms]))
        for kind, atoms in (("words", ("a", "b")),
                            ("nc", ("{1}:a", "{1}:b")))]


def test_keyrell_fails_its_block_product_when_kappa_drifts(monkeypatch):
    # an oracle product one too high misses Psi on every decorated shape;
    # the two cumulant solves read no block product
    verify = nc_hopf.verify
    real = verify.kappa_powers
    monkeypatch.setattr(verify, "kappa_powers",
                        lambda *args: real(*args) + 1)
    assert failed(verify.verify_keyrell(2)) == [
        ("Psi(L⊗w) = block product of kappa (3 partitions)",
         failing(["{1} on x1", "{1,2} on x1.x2", "{1}{2} on x1.x2"]))]


def test_roundtrip_fails_when_one_direction_drifts(monkeypatch):
    # k2m reading its last cumulant one too high breaks both round trips
    # of every classical sequence; the free ones do not read it
    verify = nc_hopf.verify
    real = verify.classical_moments_from_cumulants
    monkeypatch.setattr(verify, "classical_moments_from_cumulants",
                        lambda c: real(verify.CumulantSequence(
                            c.values[:-1] + (c.values[-1] + 1,), c.flavor)))
    assert failed(verify.verify_roundtrip(3)) == [
        ("classical: 50 random sequences, N=3",
         failing([f"trial {t}" for t in range(50)]))]


def test_semicircular_fails_when_nc2_drops_its_block(monkeypatch):
    # NC(2) without {1,2} counts no pairing of two points, against Catalan
    # and against the second moment, which the transform reads off no list
    verify = nc_hopf.verify
    real = verify.enumerate_nc_partitions
    monkeypatch.setattr(verify, "enumerate_nc_partitions", lambda n: [
        p for p in real(n) if p.blocks != ((1, 2),)])
    assert failed(verify.verify_semicircular(3)) == [
        ("moments = non-crossing pair counts = Catalan, N=3",
         failing(["pair count at n=2", "moment at n=2"]))]


def test_moebius_fails_its_bottom_values_against_a_wrong_catalan(
        monkeypatch):
    # only the NC bottom check reads the Catalan numbers
    verify = nc_hopf.verify
    real = verify.catalan_number
    monkeypatch.setattr(verify, "catalan_number", lambda n: real(n) + 1)
    assert failed(verify.verify_moebius(3)) == [
        ("nc lattice: recursion gives signed Catalan values, n ≤ 3",
         failing(["n=1", "n=2", "n=3"]))]


def test_apply_drops_a_term_that_cancels():
    # two legs with one image and opposite coefficients leave nothing, and
    # a third key's term stays
    image = {"x": {("z",): 1}, "y": {("z",): 1}, "w": {("v", "u"): 2}}
    terms = {("x", "k"): 3, ("y", "k"): -3, ("w", "k"): 1}
    assert nc_hopf.verify._apply(terms, 0, image.__getitem__) == {
        ("v", "u", "k"): 2}


def test_sp_morphism_reads_a_word_s_atoms_while_they_are_cached(
        monkeypatch):
    # the three coproducts of one word read its decorated atoms in turn, so
    # a 256-entry cache misses at most a tenth more than an unbounded one;
    # walking every word once per coproduct missed three times as often
    tensor = nc_hopf.tensor
    misses = {}
    for size in (None, 256):
        cache = lru_cache(maxsize=size)(tensor.delta_nc_halves.__wrapped__)
        monkeypatch.setattr(tensor, "delta_nc_halves", cache)
        nc_hopf.clear_caches()
        assert nc_hopf.verify.verify_sp_morphism(5).passed
        misses[size] = cache.cache_info().misses
    nc_hopf.clear_caches()
    assert misses[256] <= 1.1 * misses[None]


def test_tree_consistency_fails_its_rule_when_no_shape_is_marked(
        monkeypatch):
    # with the bare map in place of the gapped one no tree carries a mark,
    # so the one shape the bare map cannot transport breaks the rule too
    verify = nc_hopf.verify
    monkeypatch.setattr(verify, "gapped_hierarchy_tree", verify.hierarchy_tree)
    assert failed(verify.verify_tree_consistency(5)) == [
        ("coproducts agree through the gapped hierarchy map (64 shapes)",
         failing(["{1,3,5}{2}{4}"])),
        ("bare hierarchy map transports exactly the mark-free shapes "
         "(64 hold, 0 marked fail)",
         "marked: none; 1 against the rule: {1,3,5}{2}{4}")]


def test_character_bijection_fails_off_a_character(monkeypatch):
    # a fixed point one too high on the two-atom bar word a|aa fails the
    # product check on exactly that pair, and exp≺ = fixed point there
    verify = nc_hopf.verify
    real = verify.solve_left_fixed_point
    drifted_at = (Word(("a",)), Word(("a", "a")))

    def drifted(kappa):
        phi = real(kappa)
        return Character(kappa.algebra, kappa.truncation,
                         lambda b: phi(b) + (b == drifted_at), unit_value=1)

    monkeypatch.setattr(verify, "solve_left_fixed_point", drifted)
    assert failed(verify.verify_character_bijection(3)) == [
        ("exp≺ = fixed point on 8 bar words, N=3", failing(["a|a.a"])),
        ("fixed point is a character (5 products)",
         failing(["('a', 'a.a')"]))]


def test_character_bijection_fails_off_the_unit(monkeypatch):
    # Phi(1) = 2 fails the character check at the unit; the extraction,
    # which refuses such a Phi, reads the true fixed point
    verify = nc_hopf.verify
    real, extract = verify.solve_left_fixed_point, verify.extract_infinitesimal
    solved = []

    def doubled_unit(kappa):
        solved.append(real(kappa))
        return Character(kappa.algebra, kappa.truncation, solved[-1],
                         unit_value=2)

    monkeypatch.setattr(verify, "solve_left_fixed_point", doubled_unit)
    monkeypatch.setattr(verify, "extract_infinitesimal",
                        lambda phi: extract(solved[-1]))
    assert failed(verify.verify_character_bijection(2)) == [
        ("exp≺ = fixed point on 4 bar words, N=2", failing(["1"])),
        ("fixed point is a character (1 products)",
         failing(["('unit', 2)"]))]


def character_products(n: int) -> int:
    """The pairs a, b of one-letter bar words with deg a + deg b <= n:
    (s - 1) 2^(s - 2) of total degree s, as a degree d >= 1 has 2^(d - 1)
    bar words."""
    return sum((s - 1) << (s - 2) for s in range(2, n + 1))


@pytest.mark.parametrize("n,products", [(1, 0), (3, 5), (8, 769),
                                        (10, 4097)])
def test_character_bijection_reads_every_product(n, products):
    # no cap: at the ceiling, 12, the check reads all 20,481 pairs
    [report] = run_suite("character-bijection", n)
    assert report.checks[1].label == (
        f"fixed point is a character ({products} products)")
    assert products == character_products(n)
    assert character_products(12) == 20481
