import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import nc_hopf
import nc_hopf.verify
from nc_hopf.errors import NcHopfError
from nc_hopf.functionals import (
    WORDS,
    Algebra,
    random_functional,
    random_infinitesimal,
)
from nc_hopf.verify import (
    SUITES,
    SuiteReport,
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
    delta_bar((DecoratedNC(shape),), "left")
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
