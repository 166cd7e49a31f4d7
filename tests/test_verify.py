import inspect

import pytest

from nc_hopf.verify import SUITES, SuiteReport, run_suite


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
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_run_suite_single():
    reports = run_suite("counting", max_n=6)
    assert len(reports) == 1 and reports[0].passed


def test_all_suite_names_are_callable():
    assert set(SUITES) >= {"counting", "coassociativity", "unshuffle",
                           "halfshuffle", "sp-morphism", "keyrell",
                           "roundtrip", "tree-consistency", "moebius"}


def test_small_unshuffle_run():
    reports = run_suite("unshuffle", max_degree=3)
    assert reports[0].passed


def test_small_halfshuffle_run():
    reports = run_suite("halfshuffle", max_degree=3, trials=3)
    assert reports[0].passed


def test_size_bound_is_the_first_parameter_of_every_suite():
    # the CLI passes --max-degree positionally
    bounds = {"max_n", "max_degree", "max_word_len", "truncation", "order"}
    for name, fn in SUITES.items():
        assert next(iter(inspect.signature(fn).parameters)) in bounds, name
    report, = run_suite("roundtrip", 3)
    assert report.passed and all("N=3" in c.label for c in report.checks)
