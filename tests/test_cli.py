import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nc_hopf.cli
import nc_hopf.tensor
import nc_hopf.transforms
import nc_hopf.verify
from nc_hopf.cli import main
from nc_hopf.verify import SUITES, SuiteReport

GOLDEN = Path(__file__).parent / "golden"
# every transform direction, each with a symbolic golden file at order 12
DIRECTIONS = [("free", "k2m"), ("free", "m2k"),
              ("classical", "c2m"), ("classical", "m2c")]


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


class TestEnumerate:
    def test_count_nc(self):
        code, out = run("enumerate", "nc", "--n", "4", "--count")
        assert code == 0 and out == "14\n"

    def test_count_set(self):
        code, out = run("enumerate", "set", "--n", "5", "--count")
        assert code == 0 and out == "52\n"

    def test_count_at_the_caps_is_closed_form(self):
        # Catalan(14) and Bell(12), returned without enumerating
        code, out = run("enumerate", "nc", "--n", "14", "--count")
        assert code == 0 and out == "2674440\n"
        code, out = run("enumerate", "set", "--n", "12", "--count", "--json")
        assert code == 0 and json.loads(out) == {"count": 4213597}
        code, _ = run("enumerate", "set", "--n", "0", "--count")
        assert code == 1

    def test_listing(self):
        code, out = run("enumerate", "nc", "--n", "3")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 5
        assert "{1,2,3}" in lines and "{1,3}{2}" in lines

    def test_json(self):
        code, out = run("enumerate", "nc", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out) == [{"blocks": [[1, 2]]},
                                   {"blocks": [[1], [2]]}]

    def test_cap_is_domain_error(self):
        code, _ = run("enumerate", "nc", "--n", "99", "--count")
        assert code == 1

    @pytest.mark.parametrize("lattice", ["nc", "set"])
    def test_streamed_json_is_the_dumped_list(self, lattice):
        enum = {"nc": nc_hopf.partitions.enumerate_nc_partitions,
                "set": nc_hopf.partitions.enumerate_set_partitions}[lattice]
        for n in (1, 2, 5):
            code, out = run("enumerate", lattice, "--n", str(n), "--json")
            assert code == 0
            assert out == json.dumps([p.to_json() for p in enum(n)]) + "\n"

    def test_cap_checked_before_any_output(self, monkeypatch):
        # the lowered cap comes first: a cap one too high fails there at
        # once, where at the default it would write the 27,644,437
        # partitions of [13] before failing
        monkeypatch.setenv("NCHOPF_MAX_N", "3")
        for argv in (("set", "--n", "4", "--json"), ("nc", "--n", "4")):
            assert run("enumerate", *argv) == (1, "")
        monkeypatch.delenv("NCHOPF_MAX_N")
        code, out = run("enumerate", "set", "--n", "13", "--json")
        assert (code, out) == (1, "")

    def test_listing_streams(self):
        # each partition is written as it is made, so the peak stays near
        # the interpreter's own; holding the 115,975 partitions of [10] and
        # their JSON text takes about 80 MB.  VmHWM is the peak of the
        # child's own memory map, where ru_maxrss would also count the
        # pytest process it was forked from.
        probe = """
import os
from nc_hopf.cli import main
with open(os.devnull, "w") as sink:
    code = main(["enumerate", "set", "--n", "10", "--json"], out=sink)
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status
                if line.startswith("VmHWM:"))
print(code, peak)
"""
        src = str(Path(__file__).parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0 and peak_kb < 40 * 1024


class TestCoproduct:
    @pytest.mark.parametrize("subject,filename", [
        ("{1,4}{2,3}", "coproduct_nested_pair.txt"),
        ("{1,5}{2}{3,4}", "coproduct_five_elements.txt"),
        ("{1,2}{3}{4}", "coproduct_bar_term.txt"),
    ])
    def test_nc_golden(self, subject, filename):
        code, out = run("coproduct", "nc", subject)
        assert code == 0 and out == golden(filename)

    def test_word(self):
        code, out = run("coproduct", "word", "a.b")
        assert code == 0
        assert "a.b ⊗ 1" in out and "1 ⊗ a.b" in out
        assert "a ⊗ b" in out and "b ⊗ a" in out

    def test_tree(self):
        code, out = run("coproduct", "tree", "(()()())")
        assert code == 0
        assert "3·(()()) ⊗ (())" in out

    def test_json_terms_carry_coefficients(self):
        code, out = run("coproduct", "nc", "{1,2}{3}{4}", "--json")
        data = json.loads(out)
        assert code == 0
        assert {"coefficient": "2", "left": "{1,2}{3}", "right": "{1}"} in data

    def test_crossing_is_domain_error(self):
        code, _ = run("coproduct", "nc", "{1,3}{2,4}")
        assert code == 1

    @pytest.mark.parametrize("subject", ["a..b", ".a."])
    def test_empty_letter_is_parse_error(self, subject, capsys):
        code, out = run("coproduct", "word", subject)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "empty letter" in err

    def test_repeated_element_is_domain_error(self):
        code, out = run("coproduct", "nc", "{1,1}{2}")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("subject", ["{1}", "a|b.c", "a b"])
    def test_letter_holding_a_separator_is_parse_error(self, subject, capsys):
        # {1} once printed the bytes of `coproduct nc {1}`, and a|b.c the
        # term a|b ⊗ c, read back as a bar word of two atoms
        code, out = run("coproduct", "word", subject)
        assert code == 1 and out == ""
        assert "separator" in capsys.readouterr().err

    def test_word_subject_held_to_the_nc_cap(self, monkeypatch, capsys):
        # its splits run over 2^n subsets: 20 letters once ran for 20 s
        src = str(Path(__file__).parent.parent / "src")
        word = ".".join("a" * 15)
        done = subprocess.run(
            [sys.executable, "-m", "nc_hopf.cli", "coproduct", "word", word],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert "outside allowed range 1..14" in done.stderr
        start = time.perf_counter()
        assert run("coproduct", "word", word) == (1, "")
        assert time.perf_counter() - start < 1.0
        monkeypatch.setenv("NCHOPF_MAX_N", "3")
        assert run("coproduct", "word", "a.b.c.d") == (1, "")
        assert run("coproduct", "word", "a.b.c")[0] == 0


class TestMoebius:
    def test_nc_full_interval(self):
        code, out = run("moebius", "nc", "{1}{2}{3}{4}", "{1,2,3,4}")
        assert code == 0 and out == "-5\n"

    def test_set_full_interval(self):
        code, out = run("moebius", "set", "{1}{2}{3}{4}", "{1,2,3,4}")
        assert code == 0 and out == "-6\n"

    def test_not_comparable(self):
        code, _ = run("moebius", "set", "{1,2}{3}", "{1,3}{2}")
        assert code == 1

    @pytest.mark.parametrize("lattice,value", [("set", "-39916800"),
                                               ("nc", "-58786")])
    def test_twelve_elements_at_once(self, lattice, value):
        lo = "".join(f"{{{x}}}" for x in range(1, 13))
        hi = "{" + ",".join(map(str, range(1, 13))) + "}"
        # a search over the coarsenings would run for hours
        src = str(Path(__file__).parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "nc_hopf.cli", "moebius", lattice, lo, hi],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=10)
        assert (done.returncode, done.stdout) == (0, value + "\n")
        start = time.perf_counter()
        assert run("moebius", lattice, lo, hi) == (0, value + "\n")
        assert time.perf_counter() - start < 1.0


class TestTransform:
    def test_free_symbolic_golden(self):
        code, out = run("transform", "free", "--direction", "k2m",
                        "--symbolic", "--n", "4")
        assert code == 0 and out == golden("free_moments_symbolic.txt")
        assert out.strip().split("\n")[-1] == \
            "m_4 = k1^4 + 6*k1^2*k2 + 2*k2^2 + 4*k1*k3 + k4"

    def test_classical_symbolic_golden(self):
        code, out = run("transform", "classical", "--direction", "c2m",
                        "--symbolic", "--n", "5")
        assert code == 0 and out == golden("bell_polynomials_symbolic.txt")

    @pytest.mark.parametrize("flavor,direction", DIRECTIONS)
    def test_symbolic_golden_at_order_12(self, flavor, direction):
        code, out = run("transform", flavor, "--direction", direction,
                        "--symbolic", "--n", "12")
        assert code == 0 and out == golden(
            f"transform_{flavor}_{direction}_symbolic_12.txt")

    def test_symbolic_json_golden_at_order_12(self):
        code, out = run("transform", "free", "--direction", "m2k",
                        "--symbolic", "--n", "12", "--json")
        assert code == 0 and out == golden(
            "transform_free_m2k_symbolic_12.json")
        assert json.loads(out)["values"][1] == "-m1^2 + m2"

    def test_moment_file_keeps_a_leading_one(self, tmp_path):
        # free-Poisson moments m_1..m_4 = 1, 2, 5, 14 (Catalan numbers): the
        # leading 1 is m_1, not an m_0 to drop, so every cumulant is 1
        f = tmp_path / "moments.json"
        f.write_text(json.dumps({"values": ["1", "2", "5", "14"]}))
        code, out = run("transform", "free", "--direction", "m2k",
                        "--in", str(f))
        assert code == 0
        assert out == "k_1 = 1\nk_2 = 1\nk_3 = 1\nk_4 = 1\n"

    def test_numeric_round_trip_via_files(self, tmp_path):
        seq = {"values": ["1/2", "-3", "2"]}
        f = tmp_path / "moments.json"
        f.write_text(json.dumps(seq))
        code, out = run("transform", "free", "--direction", "m2k",
                        "--in", str(f), "--json")
        assert code == 0
        k = json.loads(out)
        g = tmp_path / "cumulants.json"
        g.write_text(json.dumps(k))
        code, out = run("transform", "free", "--direction", "k2m",
                        "--in", str(g), "--json")
        assert code == 0
        assert json.loads(out)["values"] == ["1/2", "-3", "2"]

    def test_multivariate_table(self, tmp_path):
        table = {"alphabet": ["a", "b"],
                 "values": {"a": "1", "b": "2", "a.a": "3", "a.b": "4",
                            "b.a": "5", "b.b": "6"}}
        f = tmp_path / "table.json"
        f.write_text(json.dumps(table))
        code, out = run("transform", "free", "--direction", "multi-m2k",
                        "--in", str(f))
        assert code == 0
        lines = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert lines["R[a]"] == "1"
        assert lines["R[a.b]"] == "2"   # 4 - 1*2

    def test_multivariate_table_past_the_term_cap(self, tmp_path, capsys):
        # 8,190 words of order 12, 8,190 * 2^11 terms: refused before any work
        table = {"alphabet": ["a", "b"], "values": {
            ".".join(w): "1" for n in range(1, 13)
            for w in itertools.product("ab", repeat=n)}}
        f = tmp_path / "table.json"
        f.write_text(json.dumps(table))
        code, out = run("transform", "free", "--direction", "multi-m2k",
                        "--in", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: a moment table of 8190 words up to order 12 needs "
            "8190 * 2^11 first-block terms, more than 4194304\n")

    def test_flavor_direction_mismatch(self):
        code, _ = run("transform", "free", "--direction", "c2m", "--symbolic",
                      "--n", "3")
        assert code == 1

    def test_missing_input_is_domain_error(self):
        code, _ = run("transform", "free", "--direction", "k2m", "--n", "3")
        assert code == 1

    @pytest.mark.parametrize("flavor,direction,n", [
        ("classical", "c2m", "13"), ("classical", "m2c", "13"),
        ("free", "k2m", "15"), ("free", "m2k", "15")])
    def test_cap_checked_before_work(self, flavor, direction, n):
        # one past the set cap (12) or the nc cap (14)
        start = time.perf_counter()
        code, out = run("transform", flavor, "--direction", direction,
                        "--symbolic", "--n", n)
        assert code == 1 and out == ""
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("direction", ["c2m", "m2c", "k2m", "m2k"])
    def test_non_positive_order_is_domain_error(self, direction, capsys):
        flavor = "classical" if direction in ("c2m", "m2c") else "free"
        cap = 12 if flavor == "classical" else 14
        for n in ("0", "-2"):
            code, out = run("transform", flavor, "--direction", direction,
                            "--symbolic", "--n", n)
            assert code == 1 and out == "", (direction, n)
            # the message names the order given, not the length of an
            # empty sequence
            assert capsys.readouterr().err == (
                f"error: n={n} outside allowed range 1..{cap}\n")

    @pytest.mark.parametrize("direction", ["c2m", "m2c", "k2m", "m2k"])
    def test_empty_values_file_is_domain_error(self, tmp_path, direction):
        flavor = "classical" if direction in ("c2m", "m2c") else "free"
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"values": []}))
        code, out = run("transform", flavor, "--direction", direction,
                        "--in", str(f))
        assert code == 1 and out == ""

    def test_empty_alphabet_is_a_domain_error(self, tmp_path, capsys):
        # a table over no letters has order 0, outside the NC cap's range
        f = tmp_path / "input.json"
        f.write_text(json.dumps({"alphabet": [], "values": {}}))
        assert run("transform", "free", "--direction", "multi-m2k",
                   "--in", str(f)) == (1, "")
        assert capsys.readouterr().err == (
            "error: n=0 outside allowed range 1..14\n")

    @pytest.mark.parametrize("direction,data", [
        ("m2k", [1, 2]),
        ("m2k", {}),
        ("m2k", {"values": 5}),
        ("m2k", {"values": [1, 2]}),
        ("m2k", {"values": [None]}),
        ("m2k", {"values": [{"a": 1}]}),
        ("m2k", {"values": {"a": "1"}}),
        ("k2m", {"values": [2]}),
        ("multi-m2k", [1]),
        ("multi-m2k", {"values": {"a": "1"}}),
        ("multi-m2k", {"alphabet": ["a"]}),
        ("multi-m2k", {"alphabet": ["a"], "values": 5}),
        ("multi-m2k", {"alphabet": ["a"], "values": ["1"]}),
        ("multi-m2k", {"alphabet": ["a"], "values": {"a": 1}}),
        ("multi-m2k", {"alphabet": ["a"], "values": {"a": None}}),
        ("multi-m2k", {"alphabet": ["a"], "values": {"a": {"a": 1}}}),
        ("multi-m2k", {"alphabet": "ab", "values": {"a": "1", "b": "2"}}),
        ("multi-m2k", {"alphabet": ["a"], "values": {"a": "1", "c": "2"}}),
        ("multi-m2k", {"alphabet": ["a"], "values": {"a": "1", "": "2"}}),
        ("multi-m2k", {"alphabet": ["a", "a"], "values": {"a": "1"}}),
        ("multi-m2k", {"alphabet": [1], "values": {"1": "1"}}),
        ("multi-m2k", {"alphabet": ["a.b"], "values": {"a.b": "1"}}),
    ])
    def test_malformed_json_is_parse_error(self, tmp_path, capsys,
                                           direction, data):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(data))
        code, out = run("transform", "free", "--direction", direction,
                        "--in", str(f))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("direction", ["m2k", "multi-m2k"])
    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys,
                                               direction):
        f = tmp_path / "input.json"
        f.write_text("[" * 100000)
        code, out = run("transform", "free", "--direction", direction,
                        "--in", str(f))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("direction", ["m2k", "multi-m2k"])
    @pytest.mark.parametrize("text,message", [
        ("{not json", "Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"),
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ("[" * 100000, "{path}: JSON nested too deeply"),
    ], ids=["malformed", "empty", "too-deep"])
    def test_unreadable_json_message(self, tmp_path, capsys, direction,
                                     text, message):
        # the reader's own message, on one line, with exit status 1
        f = tmp_path / "input.json"
        f.write_text(text)
        code, out = run("transform", "free", "--direction", direction,
                        "--in", str(f))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message.format(path=f)}\n"

    def test_values_past_the_int_string_limit_print_in_full(self, tmp_path):
        # m_2 = c_1^2 + c_2 has 6000 digits, past str(int)'s default limit
        f = tmp_path / "cumulants.json"
        f.write_text(json.dumps({"values": ["9" * 3000, "1"]}))
        code, out = run("transform", "classical", "--direction", "c2m",
                        "--in", str(f))
        assert code == 0
        assert out == (f"m_1 = {'9' * 3000}\n"
                       f"m_2 = {'9' * 2999}8{'0' * 2999}2\n")

    @pytest.mark.parametrize("value", ["1.5", "1_000", "1e300000"])
    def test_numbers_other_than_p_or_p_over_q_are_parse_errors(
            self, tmp_path, capsys, value):
        f = tmp_path / "moments.json"
        f.write_text(json.dumps({"values": [value]}))
        code, out = run("transform", "free", "--direction", "k2m",
                        "--in", str(f))
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: not a rational")

    @pytest.mark.parametrize("direction,flags", [
        ("k2m", ("--in", "@", "--n", "2")),
        ("m2k", ("--in", "@", "--symbolic")),
        ("k2m", ("--in", "@", "--symbolic", "--n", "3")),
        ("multi-m2k", ("--in", "@", "--symbolic")),
        ("multi-m2k", ("--in", "@", "--n", "2")),
    ])
    def test_flags_that_do_not_apply_are_domain_errors(
            self, tmp_path, capsys, direction, flags):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(
            {"alphabet": ["a"], "values": {"a": "1", "a.a": "2"}}
            if direction == "multi-m2k" else {"values": ["1", "2", "3", "4"]}))
        argv = [str(f) if flag == "@" else flag for flag in flags]
        code, out = run("transform", "free", "--direction", direction, *argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_route_disagreement_is_internal_fault(self, monkeypatch, capsys):
        # a series route off by one in m_1 must not pass for bad input
        series = nc_hopf.transforms._free_moments_series
        monkeypatch.setattr(nc_hopf.transforms, "_free_moments_series",
                            lambda k: [series(k)[0] + 1, *series(k)[1:]])
        code, out = run("transform", "free", "--direction", "k2m",
                        "--symbolic", "--n", "3")
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: free moments: route 'nc-sum' and "
                              "route 'series' disagree")

    def test_failed_round_trip_is_internal_fault(self, monkeypatch, capsys):
        # m2k runs the series forward on its Möbius sum; a series off by
        # one in m_1 breaks that round trip
        series = nc_hopf.transforms._free_moments_series
        monkeypatch.setattr(nc_hopf.transforms, "_free_moments_series",
                            lambda k: [series(k)[0] + 1, *series(k)[1:]])
        code, out = run("transform", "free", "--direction", "m2k",
                        "--symbolic", "--n", "3")
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "error: free cumulants: Möbius inversion does not round-trip\n")


class TestSplitAndTree:
    def test_split_listing(self):
        code, out = run("split", "{1,4}{2,3}")
        assert code == 0
        lines = out.strip().split("\n")
        assert "{} | {1,4}{2,3}" in lines
        assert "{1,4}{2,3} | {}" in lines
        assert "{1,4} | {2,3}" in lines
        assert "{2,3} | {1,4}" not in lines  # inadmissible selection

    def test_tree_text(self):
        code, out = run("tree", "{1,4}{2,3}{5,6,7}")
        assert code == 0 and out == "((())())\n"

    def test_repeated_element_is_domain_error(self):
        code, out = run("tree", "{1,2,1}")
        assert code == 1 and out == ""

    def test_tree_marks_gaps(self):
        code, out = run("tree", "{1,3,5}{2}{4}")
        assert code == 0 and out == "((()|()))\n"
        code, out = run("tree", "{1,4,5}{2}{3}")
        assert code == 0 and out == "((()()))\n"

    def test_tree_coproduct_agrees_with_nc_coproduct(self):
        # each term of coproduct nc, mapped to trees, is a term of the
        # tree coproduct with the same coefficient, and nothing else is
        def tree_of(partition_text):
            code, out = run("tree", partition_text)
            assert code == 0
            return out.strip()

        subject = "{1,3,5}{2}{4}"
        code, out = run("coproduct", "nc", subject, "--json")
        assert code == 0
        expected = {}
        for term in json.loads(out):
            left = tree_of(term["left"]) if term["left"] != "1" else "()"
            right = tuple(tree_of(x) for x in term["right"].split("|")) \
                if term["right"] != "1" else ()
            key = (left, right)
            expected[key] = expected.get(key, 0) + int(term["coefficient"])
        code, out = run("tree", subject, "--coproduct", "--json")
        assert code == 0
        got = {(t["rooted"], tuple(t["pruned"])): int(t["coefficient"])
               for t in json.loads(out)["coproduct"]}
        assert got == expected

    @pytest.mark.parametrize("subject", [
        "(" * 1200 + ")" * 1200,      # once a RecursionError traceback
        "(" + "()" * 24 + ")",        # once 2^24 cuts
    ])
    def test_tree_past_the_cap_exits_one_at_once(self, subject):
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
        done = subprocess.run(
            [sys.executable, "-m", "nc_hopf.cli", "coproduct", "tree",
             subject], env=env, capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: n=15 outside allowed range 1..14\n"
        start = time.perf_counter()
        assert run("coproduct", "tree", subject) == (1, "")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["split", "P"], ["tree", "P"], ["tree", "P", "--coproduct"],
        ["coproduct", "nc", "P"]])
    def test_partition_subject_held_to_the_nc_cap(self, monkeypatch, capsys,
                                                  argv):
        monkeypatch.setenv("NCHOPF_MAX_N", "6")

        def on(subject):
            return [subject if a == "P" else a for a in argv]

        assert run(*on("{1,7}{2}{3}{4}{5}{6}")) == (1, "")
        assert "outside allowed range 1..6" in capsys.readouterr().err
        assert run(*on("{1,6}{2}{3}{4}{5}"))[0] == 0

    def test_tree_coproduct_golden(self):
        code, out = run("tree", "{1,2}{3,4}{5,6}", "--coproduct")
        assert code == 0 and out == golden("tree_coproduct_crown.txt")
        code, out = run("tree", "{1,3}{2}{4,5}", "--coproduct")
        assert code == 0 and out == golden("tree_coproduct_nested.txt")


class TestVerify:
    def test_pass_suite(self):
        code, out = run("verify", "moebius", "--max-degree", "5")
        assert code == 0 and "PASS" in out

    def test_alias(self, capsys):
        # verify takes exactly the SUITES names: no shorthand
        for name in ("coassoc", "characters"):
            assert run("verify", name, "--max-degree", "3") == (1, "")
            assert capsys.readouterr().err == (
                f"error: unknown suite {name!r}; choose from "
                f"{', '.join(sorted(SUITES))} or 'all'\n")

    def test_json_report(self):
        code, out = run("verify", "counting", "--max-degree", "6")
        assert code == 0
        code, out = run("verify", "counting", "--max-degree", "6", "--json")
        data = json.loads(out)
        assert data[0]["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["all", "--max-degree", "2"],
        ["counting", "--max-degree", "0"],
        ["moebius", "--max-degree", "-1"]])
    def test_bound_that_does_not_apply_is_domain_error(self, capsys, argv):
        assert run("verify", *argv) == (1, "")
        assert capsys.readouterr().err.startswith("error: --max-degree")

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_bound_past_the_ceiling_is_domain_error(self, capsys, name):
        ceiling = SUITES[name][1]
        past = str(ceiling + 1)
        start = time.perf_counter()
        assert run("verify", name, "--max-degree", past) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(
            f"error: --max-degree for {name} runs from 1 to "
            f"{ceiling}, not {past}")

    def test_bound_past_the_ceiling_exits_one_at_once(self):
        # moebius at 12 would walk every coarsening for hours
        src = str(Path(__file__).parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "nc_hopf.cli", "verify", "moebius",
             "--max-degree", "12"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: --max-degree")

    def test_json_report_lists_every_failure(self, monkeypatch):
        # every generator fails: 3 + 9 words and 1 + 2 partitions
        apply = nc_hopf.verify._apply
        monkeypatch.setattr(
            nc_hopf.verify, "_apply", lambda terms, leg, variant:
            apply(terms, leg, variant) if leg else {})
        code, out = run("verify", "coassociativity", "--max-degree", "2",
                        "--json")
        assert code == 1
        words, partitions = json.loads(out)[0]["checks"]
        count, _, names = words["detail"].partition(" failing: ")
        assert count == "12" and sorted(names.split(", ")) == sorted(
            [*"abc", *(f"{x}.{y}" for x in "abc" for y in "abc")])
        assert partitions["detail"] == "3 failing: {1}, {1,2}, {1}{2}"

    def test_unknown_suite(self, capsys):
        # run_suite names the suite, whatever the bound
        for bound in ([], ["--max-degree", "3"], ["--max-degree", "0"]):
            assert run("verify", "bogus", *bound) == (1, "")
            assert capsys.readouterr().err == (
                f"error: unknown suite 'bogus'; choose from "
                f"{', '.join(sorted(nc_hopf.verify.SUITES))} or 'all'\n")

    def test_stray_error_inside_a_suite_is_internal_fault(self, monkeypatch,
                                                          capsys):
        def broken_suite():
            raise KeyError("lost")

        monkeypatch.setitem(nc_hopf.verify.SUITES, "broken", (broken_suite, 1))
        code, out = run("verify", "broken")
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("error: internal fault")

    def test_suite_that_raises_under_all_keeps_every_report(self,
                                                            monkeypatch):
        names = list(nc_hopf.verify.SUITES)
        broken = names[len(names) // 2]

        def suite(name, error):
            def run_it():
                if name == broken:
                    raise error
                report = SuiteReport(name)
                report.add("holds", True)
                return report
            return run_it

        # the internal faults of cli.main, each raised by one suite
        for error, failure in (
                (nc_hopf.errors.InconsistencyError("routes differ"),
                 "raised InconsistencyError: routes differ"),
                (nc_hopf.errors.AlgebraMismatchError("kinds differ"),
                 "raised AlgebraMismatchError: kinds differ"),
                (nc_hopf.errors.TruncationError("too deep"),
                 "raised TruncationError: too deep"),
                (KeyError("lost"), "raised KeyError: 'lost'"),
                (ValueError("bad"), "raised ValueError: bad")):
            for name in names:
                monkeypatch.setitem(nc_hopf.verify.SUITES, name,
                                    (suite(name, error), 1))
            code, out = run("verify", "all")
            assert code == 3
            assert [line.split(":")[0] for line in out.splitlines()
                    if not line.startswith(" ")] == names
            assert (f"{broken}: FAIL (1 checks, 1 failed)\n"
                    f"  FAIL {failure}\n") in out
            code, out = run("verify", "all", "--json")
            assert code == 3
            data = json.loads(out)
            assert [r["suite"] for r in data] == names
            assert [r["suite"] for r in data if not r["passed"]] == [broken]
            check, = data[names.index(broken)]["checks"]
            assert f"{check['label']}: {check['detail']}" == failure

    def test_size_limit_under_all_is_a_domain_error(self, monkeypatch,
                                                     capsys):
        # a lowered cap is the environment's doing, not the tool's: the
        # run ends with the one error line and no report
        def capped():
            raise nc_hopf.errors.SizeLimitError("n=5 outside allowed range")

        def passing():
            return SuiteReport("passing")

        names = list(nc_hopf.verify.SUITES)
        for name in names:
            monkeypatch.setitem(nc_hopf.verify.SUITES, name, (passing, 1))
        monkeypatch.setitem(nc_hopf.verify.SUITES, names[len(names) // 2],
                            (capped, 1))
        assert run("verify", "all") == (1, "")
        assert capsys.readouterr().err == (
            "error: n=5 outside allowed range\n")

    def test_known_failure_surfaces_nonzero(self, monkeypatch):
        def failing_suite():
            report = SuiteReport("always-fails")
            report.add("deliberately broken", False, "by construction")
            return report

        monkeypatch.setitem(nc_hopf.verify.SUITES, "always-fails",
                            (failing_suite, 1))
        code, out = run("verify", "always-fails")
        assert code == 1 and "FAIL" in out and "by construction" in out
        # the gapped tree transport holds where the bare one first fails
        code, out = run("verify", "tree-consistency", "--max-degree", "5")
        assert code == 0 and "tree-consistency: PASS" in out


class TestEnvironment:
    def test_malformed_cap_variable_is_domain_error(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("NCHOPF_MAX_N", "abc")
        code, out = run("enumerate", "nc", "--n", "3", "--count")
        assert code == 1 and out == ""
        assert "NCHOPF_MAX_N" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cap_variable_below_one_is_domain_error(self, monkeypatch, capsys,
                                                     value):
        # a cap below 1 is the variable's fault, not the input's
        monkeypatch.setenv("NCHOPF_MAX_N", value)
        code, out = run("coproduct", "word", "a.b")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: environment variable NCHOPF_MAX_N={value!r} is below "
            f"1\n")

    def test_well_formed_cap_variable_is_read(self, monkeypatch):
        monkeypatch.setenv("NCHOPF_MAX_N", "3")
        assert run("enumerate", "nc", "--n", "3", "--count") == (0, "5\n")
        code, _ = run("enumerate", "nc", "--n", "4", "--count")
        assert code == 1


class TestExitCodes:
    @pytest.mark.parametrize("exc", [
        KeyError("k"), ValueError("v"),
        nc_hopf.errors.AlgebraMismatchError("m"),
        nc_hopf.errors.TruncationError("t")])
    def test_stray_exception_is_internal_fault(self, monkeypatch, capsys,
                                               exc):
        def broken(*args):
            raise exc

        # the CLI calls the coproduct through its module
        monkeypatch.setattr(nc_hopf.tensor, "delta_nc", broken)
        code, out = run("coproduct", "nc", "{1,2}")
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        assert err.startswith(f"error: internal fault: {type(exc).__name__}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("coproduct", "nc", "{1 2}"),
        ("coproduct", "nc", "{1,,2}"),
        ("split", "{1,}"),
        ("moebius", "nc", "{1}{2}", "{1,2} on {1 2}"),
        ("moebius", "nc", "{1}{2}", "{1,2} on {1,2}"),
    ])
    def test_malformed_partition_is_bad_input(self, argv, capsys):
        code, out = run(*argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: malformed")

    def test_missing_and_undecodable_files_are_bad_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (tmp_path / "absent.json", bad):
            code, out = run("transform", "free", "--direction", "m2k",
                            "--in", str(path))
            assert code == 1 and out == ""

    @pytest.mark.parametrize("direction", ["m2k", "multi-m2k"])
    def test_file_that_is_not_utf8_is_bad_input(self, tmp_path, capsys,
                                                direction):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"values": ["1"]}')
        code, out = run("transform", "free", "--direction", direction,
                        "--in", str(bad))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text: invalid start byte at byte 0\n")


class TestUsage:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "nc"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self):
        a = run("coproduct", "nc", "{1,2}{3}{4}")
        b = run("coproduct", "nc", "{1,2}{3}{4}")
        assert a == b


# every CLI command with a golden file, and that file
GOLDEN_COMMANDS = [
    (("coproduct", "nc", "{1,4}{2,3}"), "coproduct_nested_pair.txt"),
    (("coproduct", "nc", "{1,5}{2}{3,4}"), "coproduct_five_elements.txt"),
    (("coproduct", "nc", "{1,2}{3}{4}"), "coproduct_bar_term.txt"),
    (("transform", "free", "--direction", "k2m", "--symbolic", "--n", "4"),
     "free_moments_symbolic.txt"),
    (("transform", "classical", "--direction", "c2m", "--symbolic",
      "--n", "5"), "bell_polynomials_symbolic.txt"),
    *((("transform", flavor, "--direction", direction, "--symbolic",
        "--n", "12"), f"transform_{flavor}_{direction}_symbolic_12.txt")
      for flavor, direction in DIRECTIONS),
    (("transform", "free", "--direction", "m2k", "--symbolic", "--n", "12",
      "--json"), "transform_free_m2k_symbolic_12.json"),
    (("tree", "{1,2}{3,4}{5,6}", "--coproduct"), "tree_coproduct_crown.txt"),
    (("tree", "{1,3}{2}{4,5}", "--coproduct"), "tree_coproduct_nested.txt"),
]


class TestHashSeed:
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_golden_output_independent_of_hash_seed(self, seed):
        # string hashes, and so dict and set layouts, differ per seed
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src,
               "PYTHONIOENCODING": "utf-8"}
        for argv, filename in GOLDEN_COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "nc_hopf.cli", *argv], env=env,
                capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b"")
            assert done.stdout == (GOLDEN / filename).read_bytes()
