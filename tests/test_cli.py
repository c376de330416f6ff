import hashlib
import json
import os
import random
import re
import sys
import tracemalloc
import zlib
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cubesum import cli, heckeform
from cubesum.cli import (
    EXIT_BAD_INPUT,
    EXIT_FIXTURE_FAIL,
    EXIT_OK,
    EXIT_PRECISION,
    read_cache,
    write_cache,
)
from cubesum.eisenstein import is_prime_int
from cubesum.heckeform import build_form, newform_pairs, qexp_coefficients


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_7_text(tmp_path, capsys):
    code, out, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert "cube sum" in out
    assert "= 7^1" in out


def test_solve_json_schema(tmp_path, capsys):
    code, out, _ = run_cli(["solve", "13", "--json", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert set(rep) == {
        "p", "i", "pi", "r", "t", "site", "bits", "terms",
        "point_K", "point_Q", "descent_branch", "cube_sum", "checks", "timings_ms", "attempts",
    }
    assert rep["attempts"] == []  # 13 wins on its first attempt
    assert rep["p"] == 13 and rep["i"] == 1
    assert rep["pi"] == "4+3*w"
    assert set(rep["cube_sum"]) == {"u", "v"}
    # exact strings round-trip through Fraction
    from fractions import Fraction

    u, v = Fraction(rep["cube_sum"]["u"]), Fraction(rep["cube_sum"]["v"])
    assert u**3 + v**3 == 13


def test_report_roundtrip():
    # the report is a dict of JSON-ready values: its JSON reads back as itself
    from cubesum.parametrize import solve_pipeline

    rep = cli.build_report(solve_pipeline(7, 1))
    assert json.loads(cli.json_text(rep)) == rep


def test_report_dict_dumps_as_asdict():
    # the report dict is written byte for byte as json.dumps writes it,
    # here on a solved report with a failed attempt and the witness in its
    # checks
    from cubesum.curves import WITNESS_PRIME
    from cubesum.parametrize import solve_pipeline

    rep = cli.build_report(solve_pipeline(103, 2))
    assert rep["attempts"] and rep["checks"]["nontorsion_certificate"]["witness"] == WITNESS_PRIME
    assert cli.json_text(rep) == json.dumps(rep, indent=2, sort_keys=True)


# sha256 of a solve's --json report without its timing lines (the lines
# holding '_ms": '), as the CI step "Full JSON report bytes" checks it, and
# of its text report, which carries no timings
_REPORT_DIGESTS = {
    ("61", "2"): ("80a345b101c4acdbd1c9ddd91919ac23c448aaae1a7ff6e0d5f5c7e73ba6015a",
                  "1f36f21f34f9db7c2ce32b25aefee67d2100879dcdb7635d7ecd6b23ee791f4a"),
    ("7", "both"): ("ce873f5896660ac435b15d9ecdfdba633d26798e15af3d0a4e0955d2e503b802",
                    "0b2b2d6dbc8394b7efb519bdfdc279ece8861e8d2e723040569d4c35134035bf"),
    ("103", "2"): ("06f0ffff1dc2ab607adff72070dcb2397d6ec97bde3c5dfdc295a8c586cb4b7d",
                   "226455112f233fec0fdf586df76880794c47ac98cf9fe92eccc196446563595d"),
}


@pytest.mark.parametrize("p, power", list(_REPORT_DIGESTS), ids="^".join)
def test_json_report_bytes_are_pinned(p, power, tmp_path, capsys):
    code, out, err = run_cli(["solve", p, "--power", power, "--json", "--cache-dir", str(tmp_path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    kept = "".join(line for line in out.splitlines(keepends=True) if '_ms": ' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == _REPORT_DIGESTS[p, power][0]


@pytest.mark.parametrize("p, power", list(_REPORT_DIGESTS), ids="^".join)
def test_text_report_bytes_are_pinned(p, power, tmp_path, capsys):
    code, out, err = run_cli(["solve", p, "--power", power, "--cache-dir", str(tmp_path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_DIGESTS[p, power][1]


def test_bits_help_states_the_ladder(monkeypatch):
    # the --bits help spells the default ladder out in literals, since
    # building the parser must not import parametrize; here each number is
    # read back and checked against parametrize and the ladder it runs
    import argparse

    from cubesum import parametrize as par

    solve = next(a for a in cli.make_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["solve"]
    text = " ".join(next(a for a in solve._actions if a.dest == "bits").help.split())
    ladder = r"rung of at least (\d+) bits, and of at least (\d+) times the first"
    top, ratio = map(int, re.search(ladder, text).groups())
    default = r"default (\d+) for a power-1 prime below (\d+), else (\d+); each to (\d+) bits"
    small_first, small_p, first, each_top = map(int, re.search(default, text).groups())
    assert (small_p, top) == (par.SMALL_P, par.TOP_BITS)
    assert par.first_bits(small_p - 1, 1) == small_first
    assert par.first_bits(small_p + 1, 1) == par.first_bits(7, 2) == first

    rungs = []

    def fail(cand, split, p, i, prec, max_terms, form):
        rungs.append(prec)
        raise par.RecognitionFailed("stub")

    monkeypatch.setattr(par, "_attempt_site", fail)
    for p, i, bits, last in ((7, 1, None, each_top), (7, 2, None, each_top), (7, 1, top, ratio * top)):
        rungs.clear()
        with pytest.raises(par.PrecisionExhausted):
            par.solve_pipeline(p, i, bits=bits)
        assert rungs[0] == (bits or par.first_bits(p, i)) and rungs[-1] == last
    out = _run_python("-c", "import sys\nfrom cubesum import cli\ncli.make_parser()\n"
                            "print('cubesum.parametrize' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n")


_json_keys = st.text(st.characters(codec="utf-8"), max_size=6)
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**60), 10**60),
    st.integers(-(10**4000), 10**4000),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, float("nan"), float("inf"), float("-inf")]),
    st.text(st.characters(codec="utf-8"), max_size=12),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "\u00e9\u2603\U0001f600", "\ud800"]),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_json_keys, kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_report_writer_is_json_dumps_byte_for_byte(tree):
    assert cli.json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@given(st.one_of(st.integers(), st.floats(allow_nan=False), st.none(), st.booleans(),
                 st.tuples(st.integers())))
def test_report_writer_refuses_a_key_that_is_not_a_str(key):
    # json.dumps would write these keys as strings; the writer raises
    for tree in ({key: 1}, [{"a": {key: []}}]):
        with pytest.raises(TypeError):
            cli.json_text(tree)


def test_report_writer_refuses_what_json_cannot_write():
    for leaf in (object(), {1, 2}, b"bytes", 1j):
        with pytest.raises(TypeError):
            cli.json_text({"a": [leaf]})


def test_solve_report_is_json_dumps_of_the_report(tmp_path, capsys):
    code, out, _ = run_cli(["solve", "7", "--power", "both", "--json", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_solve_refuses_a_p_beyond_the_proven_primality_range(tmp_path, capsys):
    from cubesum.eisenstein import MR_PROVEN_BOUND

    # psi_12 is composite and passes all twelve bases: exit 2, not a
    # composite read as prime
    code, out, err = run_cli(["solve", str(MR_PROVEN_BOUND), "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_BAD_INPUT and out == ""
    assert f"error: {MR_PROVEN_BOUND} is not below {MR_PROVEN_BOUND}" in err
    assert os.listdir(tmp_path) == []


def test_solve_power_both(tmp_path, capsys):
    code, out, _ = run_cli(
        ["solve", "7", "--power", "both", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    reps = json.loads(out)
    assert isinstance(reps, list) and len(reps) == 2
    assert [r["i"] for r in reps] == [1, 2]
    from fractions import Fraction

    for r in reps:
        u, v = Fraction(r["cube_sum"]["u"]), Fraction(r["cube_sum"]["v"])
        assert u**3 + v**3 == 7 ** r["i"]


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["solve", "5", "--cache-dir", str(tmp_path)], capsys)[0] == EXIT_BAD_INPUT
    assert run_cli(["solve", "11", "--cache-dir", str(tmp_path)], capsys)[0] == EXIT_BAD_INPUT
    assert run_cli(["solve", "21", "--cache-dir", str(tmp_path)], capsys)[0] == EXIT_BAD_INPUT
    # an impossible terms budget exhausts the retry schedule
    code, _, err = run_cli(
        ["solve", "7", "--max-terms", "40", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_PRECISION
    assert "precision exhausted" in err


@pytest.mark.parametrize(
    "args",
    [
        ["qexp", "7", "--terms", "-1"],
        ["qexp", "7", "--terms", "0"],
        ["yseries", "7", "--terms", "0"],
        ["fseries", "7", "--terms", "-5"],
        ["solve", "7", "--bits", "0"],
        ["solve", "7", "--bits", "-192"],
        ["solve", "7", "--max-terms", "0"],
    ],
)
def test_non_positive_counts_exit_2_with_one_line(args, tmp_path, capsys):
    if args[0] == "solve":
        args = args + ["--cache-dir", str(tmp_path)]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: --") and "must be positive" in err


def test_one_bit_exits_2_with_one_line(tmp_path, capsys):
    # at 1 bit every point would read as the point at infinity and the solve
    # would end at once on a twisted difference that is the identity.  Under
    # a norm bound of 2^8 recognition guarantees nothing and is refused, so
    # the few-bit rungs fail for more precision: 7^1 from 2 bits (which
    # once recognized the torsion x = 0 and ended on a DescentFailed) and
    # from 3 bits to wins at 16 and 12, from 7 bits to one at 14, and 31^1
    # from 2 bits to one at 16
    code, out, err = run_cli(["solve", "7", "--bits", "1", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err == "error: --bits must be at least 2, not 1\n"
    for p, bits, win, failed in (("7", 2, 16, [2, 4, 8]), ("7", 3, 12, [3, 6]),
                                 ("7", 7, 14, [7]), ("31", 2, 16, [2, 4, 8])):
        argv = ["solve", p, "--bits", str(bits), "--json", "--cache-dir", str(tmp_path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["bits"] == win and [a["bits"] for a in rep["attempts"]] == failed
        assert {a["error"] for a in rep["attempts"]} == {"RecognitionFailed"}


@pytest.mark.parametrize("bits", range(2, 25))
def test_tiny_norm_bounds_exit_0_or_3(bits, tmp_path, capsys):
    # 61^2's norm bounds are 2^(bits - 8) and 2^(bits - 9) (2|y| + 1 < 2^6
    # or 2^7, |root| = 61^(2/3) < 2^5): up to 16 bits one is under 2^8 and
    # recognizes nothing, and no bits value may reach a negative shift (exit 4)
    argv = ["solve", "61", "--power", "2", "--bits", str(bits), "--cache-dir", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code in (EXIT_OK, EXIT_PRECISION), err


# 409^2's three failed rungs before its 768-bit win: (bits, norm_bits,
# stop_bits, check), each refused for want of an exact y
_FAILS_409_2 = [(96, 82, 4, 2), (192, 178, 4, 2), (384, 370, 5, 2)]


def test_solve_json_reports_failed_attempts(tmp_path, capsys):
    code, out, _ = run_cli(
        ["solve", "103", "--power", "2", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["site"], rep["bits"]) == ("wtau(r=47)", 192)
    assert len(rep["attempts"]) == 1
    att = rep["attempts"][0]
    assert (att["site"], att["bits"], att["error"]) == ("wtau(r=47)", 96, "RecognitionFailed")
    # how near the rung came: the norm bound 2^87, a stop quotient of 3 bits
    # (every win below 700 stops at 12 or more), refused by check 2, no exact y
    assert (att["norm_bits"], att["stop_bits"], att["check"]) == (87, 3, 2)
    assert att["message"] == (
        "x of f not recognized: norm_bits 87, stop_bits 3, refused by check 2 (no exact y)")
    assert rep["checks"]["precision_margin_bits"] == {"f": 28}
    # each failed attempt carries its wall time, as the first key of its
    # entry in the report, so the timing-free lines keep their order
    assert type(att["attempt_ms"]) is float and 0 < att["attempt_ms"] < rep["timings_ms"]["total_ms"]
    lines = out.splitlines()
    assert lines.index('      "attempt_ms": ' + repr(att["attempt_ms"]) + ",") + 1 == lines.index(
        '      "bits": 96,')
    # 409^2 reports the three numbers at each of its three failed rungs
    argv = ["solve", "409", "--power", "2", "--json", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["site"], rep["bits"], rep["terms"]) == ("wtau(r=356)", 768, 361800)
    assert {a["error"] for a in rep["attempts"]} == {"RecognitionFailed"}
    got = [(a["bits"], a["norm_bits"], a["stop_bits"], a["check"]) for a in rep["attempts"]]
    assert got == _FAILS_409_2


def test_exhausted_solve_reports_each_rung_in_numbers(tmp_path, capsys):
    # 409^2 capped one term under its 768-bit rung's 361800: three precision
    # failures, then the cap ends the solve.  Every attempt in the message
    # is named, each recognition failure with its numbers, and no digits
    # of x appear (no decimal point; the message once printed x)
    argv = ["solve", "409", "--power", "2", "--max-terms", "361799", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_PRECISION, "")
    entries = re.findall(r"(\w+\(r=-?\d+\))@(\d+)b: (\w+): ", err)
    assert entries == [("wtau(r=356)", str(b), "RecognitionFailed") for b, *_ in _FAILS_409_2] + [
        ("wtau(r=356)", "768", "TermsCapExceeded")]
    for bits, norm_bits, stop_bits, check in _FAILS_409_2:
        assert (f"@{bits}b: RecognitionFailed: x of f not recognized: norm_bits {norm_bits},"
                f" stop_bits {stop_bits}, refused by check {check} (no exact y)") in err
    assert "needs 361800 > 361799 terms" in err
    assert "." not in err and "j)" not in err


def test_every_attempt_has_the_same_keys(tmp_path, capsys, monkeypatch):
    # 409^2 with a residual failure at 96 bits and a RecognitionFailed with
    # no numbers (as "neither side at T" raises it) at 384, around its real
    # failure at 192: every attempt has the same keys, recognize's three
    # numbers ints where it ran and null where it did not
    import cubesum.parametrize as par

    real = par._attempt_site
    stubs = {96: par.EvalResidualTooLarge("stub"), 384: par.RecognitionFailed("stub")}

    def attempt(cand, split, p, i, prec, max_terms, form):
        if prec in stubs:
            raise stubs[prec]
        return real(cand, split, p, i, prec, max_terms, form)

    monkeypatch.setattr(par, "_attempt_site", attempt)
    argv = ["solve", "409", "--power", "2", "--json", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    atts = json.loads(out)["attempts"]
    assert [(a["bits"], a["error"]) for a in atts] == [
        (96, "EvalResidualTooLarge"), (192, "RecognitionFailed"), (384, "RecognitionFailed")]
    keys = {"attempt_ms", "site", "bits", "error", "message", "norm_bits", "stop_bits", "check"}
    assert all(set(a) == keys for a in atts)
    assert [(a["norm_bits"], a["stop_bits"], a["check"]) for a in atts] == [
        (None, None, None), _FAILS_409_2[1][1:], (None, None, None)]


def test_default_first_rung_follows_the_power(tmp_path, capsys):
    # unset, --bits starts each power at its own first rung, 48 bits for a
    # power-1 prime below 512 and 96 at power 2: 7^1 wins at 48 and 7^2 at
    # 96, also when --power both runs them in one command
    argv = ["solve", "7", "--power", "both", "--json", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert [(r["i"], r["bits"], r["attempts"]) for r in json.loads(out)] == [(1, 48, []), (2, 96, [])]
    # an explicit --bits is the first rung at every power
    code, out, _ = run_cli(argv + ["--bits", "64"], capsys)
    assert code == EXIT_OK
    assert [(r["i"], r["bits"]) for r in json.loads(out)] == [(1, 64), (2, 64)]


def test_precision_exhausted_lists_every_attempt(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    # the terms cap ends the solve after its one attempt
    code, _, err = run_cli(
        ["solve", "7", "--max-terms", "40", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_PRECISION
    entries = err.split("; ")
    assert len(entries) == 1
    assert "wtau(r=5)@48b: TermsCapExceeded: " in entries[0]

    # precision failures at every rung: all 7 attempts, 48 to 3072 bits,
    # are named
    def fail(cand, split, p, i, prec, *rest):
        raise par.RecognitionFailed(f"stub at {prec}")

    monkeypatch.setattr(par, "_attempt_site", fail)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    assert err.count("b: RecognitionFailed: stub at ") == 7
    for bits in (48, 96, 192, 384, 768, 1536, 3072):
        assert err.count(f"wtau(r=5)@{bits}b: RecognitionFailed: stub at {bits}") == 1


def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    def boom(*a, **k):
        raise AssertionError("deliberate internal failure")

    monkeypatch.setattr(par, "solve_pipeline", boom)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == 4
    assert "internal check failed" in err


def test_cube_sum_past_the_str_digit_limit_is_printed(tmp_path, capsys, monkeypatch):
    # u of 6300 digits, beyond CPython's default 4300-digit str(int) limit:
    # a certified solve still exits 0 and prints u exactly
    import copy
    from fractions import Fraction

    import cubesum.parametrize as par
    from cubesum.curves import isogeny_to_432, mul, to_cube_sum

    real = par.solve_pipeline(7, 1)
    big = to_cube_sum(*isogeny_to_432(mul(30, real.point_Q), 7, 1), 7, 1)
    assert abs(big.u.numerator) > 10**4300
    patched = copy.copy(real)
    patched.cube = big
    monkeypatch.setattr(par, "solve_pipeline", lambda *a, **k: patched)
    code, out, err = run_cli(["solve", "7", "--json", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK, err
    assert Fraction(json.loads(out)["cube_sum"]["u"]) == big.u


def test_sylvester_message_distinct(tmp_path, capsys):
    _, _, err5 = run_cli(["solve", "5", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" in err5
    _, _, err19 = run_cli(["solve", "19", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" not in err19 and "outside this construction" in err19


@pytest.mark.parametrize("command", ["solve", "qexp"])
def test_two_is_outside_the_construction_not_obstructed(tmp_path, capsys, command):
    # 2 = 2 mod 9, yet 2 = 1^3 + 1^3: Sylvester's obstruction is for odd p
    args = [command, "2"] + (["--cache-dir", str(tmp_path)] if command == "solve" else [])
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_BAD_INPUT
    assert "outside this construction" in err and "not a sum" not in err
    assert os.listdir(tmp_path) == []


def test_cache_roundtrip(tmp_path):
    for M in (1, 2, 3, 4, 5, 200):  # every residue of M mod 3
        form = build_form(7, 1, M)
        write_cache(str(tmp_path), 7, 1, form)
        assert read_cache(str(tmp_path), 7, 1) == form  # the whole stored prefix
    assert read_cache(str(tmp_path), 13, 1) is None


def _body(path):
    """(header line, b) of a cache file: the store's slots n = 3k + 1."""
    with open(path, "rb") as fh:
        line = fh.readline()
        return line, array("q", fh.read()).tolist()


# crc32 of the p = 7, M = 20 body, in each byte order
_CRC_7_20 = {"little": "0d4306b1", "big": "e1feabf9"}


def test_cache_format_stable(tmp_path):
    coeffs = build_form(7, 1, 20)
    write_cache(str(tmp_path), 7, 1, coeffs)
    path = cli.cache_path(str(tmp_path), 7, 1)
    assert path.endswith("qexp_p7_i1.bin")
    line, b = _body(path)
    crc = _CRC_7_20[sys.byteorder]
    assert line == f"SYLV3 p=7 i=1 N=189 M=20 order={sys.byteorder} crc={crc}\n".encode()
    # b_1, b_4, ..., b_19: K = 7 native int64 entries, nothing else; b_7 = 0
    # (p | n), and a_n = w^e(n) b_n gives back a_1, a_4, ..., a_19 =
    # 1, -2w, -2 - 3w, 0, 2, -4 - 4w, 7 + 7w
    assert b == [1, -2, 0, 0, 2, 4, -7]
    assert newform_pairs(7, 1, 20) == ([1, 0, -2, 0, 2, -4, 7], [0, -2, -3, 0, 0, -4, 7])
    assert os.path.getsize(path) == len(line) + 8 * 7


def test_cache_file_is_the_store_layout(tmp_path):
    # the store holds only the slots n = 3k + 1, so the file body is its one
    # list as it is, and a read gives back the same store, terms included
    for M in (19, 20, 21, 22, 5000):  # every residue of M mod 3
        form = build_form(13, 2, M)
        write_cache(str(tmp_path), 13, 2, form)
        path = cli.cache_path(str(tmp_path), 13, 2)
        line, b = _body(path)
        assert line.startswith(b"SYLV3 p=13 i=2 N=351 M=%d " % M)
        assert b == form.b and len(b) == (M + 2) // 3
        assert os.path.getsize(path) == len(line) + 8 * len(b)
        back = read_cache(str(tmp_path), 13, 2)
        assert back == form and back.terms == M
        assert back.b == qexp_coefficients(13, 2, M)
    assert os.listdir(tmp_path) == ["qexp_p13_i2.bin"]


def test_cache_body_is_one_int64_array_across_pack_chunks(tmp_path):
    # write_cache packs the store CACHE_CHUNK slots at a time; the body and
    # its crc must be those of the whole store as one native int64 array
    rng = random.Random(5)
    for K in (cli.CACHE_CHUNK - 1, cli.CACHE_CHUNK, 2 * cli.CACHE_CHUNK + 5):
        b = [rng.randrange(-(2**63), 2**63) for _ in range(K)]
        b[0], b[-1] = -(2**63), 2**63 - 1
        write_cache(str(tmp_path), 7, 1, build_form(7, 1, 3 * K - 2, b))
        body = array("q", b)
        with open(cli.cache_path(str(tmp_path), 7, 1), "rb") as fh:
            want = cli._cache_header(7, 1, 3 * K - 2, zlib.crc32(body)).encode() + body.tobytes()
            assert fh.read() == want


# sha256 of the files the earlier mkstemp-based write_cache wrote on a
# little-endian host, for every residue of M mod 3
_PARENT_FILES = {
    (7, 1, 19): "f4332030f01fc543e683b54fad9405c0a19b5145a90ff51468646baac638dcd8",
    (7, 1, 20): "bd2887178ecdbbfe3c6a0367de969f9f7f6aae014636f43c644b019dcd16083b",
    (7, 1, 21): "1103f92fe4d333c0861a7f548df6c8e7f718022ea9c2a43247fab72fa8e68091",
    (13, 2, 4999): "0be95914b68d11a221e228186c2c8b9e3d55cdeb73b46b025b00939d746b5195",
    (13, 2, 5000): "246ab6f2139f6f68654b1077c322f886a5ea1425173b3c78ec55a133bb6db83d",
    (13, 2, 5001): "b76ed5eda923195ce8222d470b8101ddc3983db687abd51163481de8e7a6fcdd",
    (61, 2, 2383): "94b0466c0b2a8c58c39a5b5c4a40b99368a8c956d5f9404c3d7a501d0ac3ab56",
}
# the whole 7^1, M = 20 file that writer wrote there
_PARENT_7_20 = (
    b"SYLV3 p=7 i=1 N=189 M=20 order=little crc=0d4306b1\n"
    + array("q", [1, -2, 0, 0, 2, 4, -7]).tobytes()
)


def test_cache_bytes_are_the_sylv3_layout(tmp_path):
    # header (N written literally: 189 = 27 * 7, 351 = 27 * 13, 549 = 9 * 61)
    # then the store as native int64, for every residue of M mod 3
    levels = {(7, 1): 189, (13, 2): 351, (61, 2): 549}
    for p, i, M in _PARENT_FILES:
        form = build_form(p, i, M)
        write_cache(str(tmp_path), p, i, form)
        with open(cli.cache_path(str(tmp_path), p, i), "rb") as fh:
            data = fh.read()
        body = array("q", form.b)
        crc = zlib.crc32(body)
        head = f"SYLV3 p={p} i={i} N={levels[p, i]} M={M} order={sys.byteorder} crc={crc:08x}\n"
        assert data == head.encode() + body.tobytes()
        if sys.byteorder == "little":
            assert hashlib.sha256(data).hexdigest() == _PARENT_FILES[p, i, M]
    assert sorted(os.listdir(tmp_path)) == ["qexp_p13_i2.bin", "qexp_p61_i2.bin", "qexp_p7_i1.bin"]


def test_cache_write_reads_n_from_the_form(tmp_path, monkeypatch):
    form = build_form(61, 2, 2383)

    def refuse(p, i):
        raise AssertionError("write_cache recomputed the level")

    monkeypatch.setattr(cli, "conductor_and_level", refuse)
    monkeypatch.setattr(cli, "is_prime_int", refuse)
    write_cache(str(tmp_path), 61, 2, form)
    monkeypatch.undo()
    assert read_cache(str(tmp_path), 61, 2) == form


@pytest.mark.skipif(sys.byteorder != "little", reason="the earlier writer's file is little-endian")
def test_a_cache_file_from_the_earlier_writer_still_hits(tmp_path, capsys, monkeypatch):
    d = str(tmp_path)
    with open(cli.cache_path(d, 7, 1), "wb") as fh:
        fh.write(_PARENT_7_20)
    assert read_cache(d, 7, 1) == build_form(7, 1, 20)
    # the solve reads the 7 stored slots (spot_check walks n <= 19 afresh)
    # and walks only past them
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, out, _ = run_cli(["solve", "7", "--json", "--cache-dir", d], capsys)
    assert code == EXIT_OK
    terms = json.loads(out)["terms"]
    assert spans == [(2, 19), (20, terms)] and writes == [terms]
    assert read_cache(d, 7, 1) == build_form(7, 1, terms)


def test_cache_write_makes_a_missing_nested_directory(tmp_path, capsys):
    d = str(tmp_path / "a" / "b" / "c")
    write_cache(d, 7, 1, build_form(7, 1, 20))
    assert read_cache(d, 7, 1) == build_form(7, 1, 20)
    assert os.listdir(d) == ["qexp_p7_i1.bin"]
    d2 = str(tmp_path / "x" / "y")
    code, _, err = run_cli(["solve", "7", "--cache-dir", d2], capsys)
    assert code == EXIT_OK and err == ""
    assert os.listdir(d2) == ["qexp_p7_i1.bin"]


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, capsys):
    # the rename fails (the target is a directory) after the temporary file
    # is written: it is removed, and the solve keeps its outcome
    d = str(tmp_path)
    os.mkdir(cli.cache_path(d, 7, 1))
    with pytest.raises(OSError):
        write_cache(d, 7, 1, build_form(7, 1, 20))
    assert os.listdir(d) == ["qexp_p7_i1.bin"]
    code, out, err = run_cli(["solve", "7", "--json", "--cache-dir", d], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["cube_identity"]["ok"] is True
    assert err.count("\n") == 1 and err.startswith("warning: coefficient cache not written")
    assert os.listdir(d) == ["qexp_p7_i1.bin"] and os.path.isdir(cli.cache_path(d, 7, 1))


def test_cache_write_draws_another_name_when_one_is_taken(tmp_path, monkeypatch):
    # the temporary name is opened exclusively, never through a link: a
    # taken name (here a symlink to a file outside) is skipped, not followed
    d = str(tmp_path)
    outside = tmp_path / "outside"
    outside.write_bytes(b"keep")
    draws = iter([b"\x00" * 6, b"\x01" * 6])
    os.symlink(str(outside), os.path.join(d, ".qexp_tmp" + "00" * 6))
    monkeypatch.setattr(cli.os, "urandom", lambda n: next(draws))
    write_cache(d, 7, 1, build_form(7, 1, 20))
    monkeypatch.undo()
    assert outside.read_bytes() == b"keep"
    assert read_cache(d, 7, 1) == build_form(7, 1, 20)
    assert sorted(os.listdir(d)) == [".qexp_tmp" + "00" * 6, "outside", "qexp_p7_i1.bin"]


def test_cold_and_warm_cache_reports_identical(tmp_path, capsys):
    args = ["solve", "13", "--json", "--cache-dir", str(tmp_path)]
    _, out_cold, _ = run_cli(args, capsys)
    assert os.path.exists(cli.cache_path(str(tmp_path), 13, 1))
    _, out_warm, _ = run_cli(args, capsys)
    cold, warm = json.loads(out_cold), json.loads(out_warm)
    cold.pop("timings_ms")
    warm.pop("timings_ms")
    assert cold == warm


def spy_cache_writes_and_walks(monkeypatch):
    """Record the terms of every cache write and the range (first, last) of
    norms n that every walk of the newform's lattice points adds to."""
    writes, spans = [], []
    real_write, real_walk = cli.write_cache, heckeform._pair_walk

    def write(cache_dir, p, i, form):
        writes.append(form.terms)
        return real_write(cache_dir, p, i, form)

    def walk(p, i, b, M):
        # the annulus past the held slots n = 1, 4, ..., 3 len(b) - 2
        spans.append((3 * len(b) - 1, M))
        return real_walk(p, i, b, M)

    monkeypatch.setattr(cli, "write_cache", write)
    monkeypatch.setattr(heckeform, "_pair_walk", walk)
    return writes, spans


def test_warm_solve_sieves_nothing_and_writes_nothing(tmp_path, capsys, monkeypatch):
    args = ["solve", "7", "--json", "--cache-dir", str(tmp_path)]
    code, out_cold, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    stored = read_cache(str(tmp_path), 7, 1)
    assert stored.terms == json.loads(out_cold)["terms"]
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert writes == [] and spans == [(2, 100)]  # only spot_check's fresh a_2..a_100
    assert read_cache(str(tmp_path), 7, 1) == stored


def test_retrying_solve_sieves_each_term_once_and_writes_the_cache_once(
    tmp_path, capsys, monkeypatch
):
    # 103^2 fails at 96 bits and wins at 192 bits (22986 terms): the
    # second attempt walks only the annulus the first did not hold, so
    # each norm n = 1 mod 3 falls in exactly one walk (a_1 = 1 is never
    # walked; every lattice point has such a norm, and a walk starts just
    # past the last held slot n)
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, out, _ = run_cli(
        ["solve", "103", "--power", "2", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["bits"], rep["terms"]) == (192, 22986)
    assert [a["bits"] for a in rep["attempts"]] == [96]
    built = [n for first, last in spans for n in range(first, last + 1) if n % 3 == 1]
    assert sorted(built) == list(range(4, 22987, 3))
    assert writes == [22986]
    assert read_cache(str(tmp_path), 103, 2) == build_form(103, 2, 22986)


def test_exhausted_solve_keeps_its_coefficients(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    def fail(z, D, prec, lattice=None):
        raise par.EvalResidualTooLarge("stub")

    # exit 3 still writes, once, what the failed attempts sieved
    monkeypatch.setattr(par, "evaluate_cm", fail)
    writes, _ = spy_cache_writes_and_walks(monkeypatch)
    code, _, _ = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    stored = read_cache(str(tmp_path), 7, 1)
    assert writes == [stored.terms] and stored.terms > 1
    assert stored.b == qexp_coefficients(7, 1, stored.terms)


def test_corrupt_cache_reads_as_miss(tmp_path, capsys):
    d = str(tmp_path)
    coeffs = build_form(7, 1, 30)
    path = cli.cache_path(d, 7, 1)
    foreign = {"little": b"order=big", "big": b"order=little"}[sys.byteorder]

    def corrupted(edit):
        write_cache(d, 7, 1, coeffs)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(edit(raw))
        return read_cache(d, 7, 1)

    assert corrupted(lambda r: r) == coeffs
    assert corrupted(lambda r: r[:-1]) is None  # truncated body
    assert corrupted(lambda r: r[:-8]) is None  # one entry short
    assert corrupted(lambda r: r + b"\0") is None  # one extra byte
    assert corrupted(lambda r: r.replace(b"SYLV3", b"SYLV1")) is None
    assert corrupted(lambda r: r.replace(b"SYLV3", b"SYLV2")) is None
    assert corrupted(lambda r: r.replace(b"SYLV3", b"SYLV4")) is None
    assert corrupted(lambda r: r.replace(f"order={sys.byteorder}".encode(), foreign)) is None
    assert corrupted(lambda r: r.replace(b"p=7 i=1", b"x=7 y=1")) is None
    assert corrupted(lambda r: r.replace(b"p=7", b"p=13")) is None
    assert corrupted(lambda r: r.replace(b"i=1", b"i=2")) is None
    assert corrupted(lambda r: r.replace(b"N=189", b"N=567")) is None
    assert corrupted(lambda r: r.replace(b"crc=", b"crc=0")) is None
    assert corrupted(lambda r: r.replace(b"\n", b" \n", 1)) is None
    for M in (27, 31, 0, -1):  # another K = (M + 2) // 3 than the body holds
        assert corrupted(lambda r: r.replace(b"M=30", b"M=%d" % M)) is None
    for huge in (10**30, 2**62, 10**9):  # refused before any list is allocated
        tracemalloc.start()
        try:
            assert corrupted(lambda r: r.replace(b"M=30", b"M=%d" % huge)) is None
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
    code, _, _ = run_cli(["solve", "7", "--cache-dir", d], capsys)
    assert code == EXIT_OK  # rebuilt and rewritten
    stored = read_cache(d, 7, 1)
    assert stored.b == qexp_coefficients(7, 1, stored.terms)


def test_corruption_past_the_spot_check_reads_as_miss(tmp_path, capsys):
    d = str(tmp_path)
    args = ["solve", "7", "--json", "--cache-dir", d]
    code, out_cold, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    path = cli.cache_path(d, 7, 1)
    with open(path, "rb") as fh:
        good = fh.read()
    line, b = _body(path)
    K = len(b)
    assert K == (read_cache(d, 7, 1).terms + 2) // 3
    # the first nonzero and the first zero b_n past spot_check's n <= 100
    # (n = 1 + 3k, k >= 34)
    for k in (next(k for k in range(34, K) if b[k]), next(k for k in range(34, K) if not b[k])):
        pos = len(line) + 8 * k
        with open(path, "wb") as fh:
            fh.write(good[:pos] + bytes([good[pos] ^ 1]) + good[pos + 1:])
        assert read_cache(d, 7, 1) is None, k
    code, out_warm, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert json.loads(out_warm)["cube_sum"] == json.loads(out_cold)["cube_sum"]
    with open(path, "rb") as fh:
        assert fh.read() == good  # rewritten whole


def test_sylv2_cache_reads_as_miss_and_is_rewritten_once(tmp_path, capsys, monkeypatch):
    # the former binary layout: magic SYLV2, then alpha and beta of a_n =
    # alpha + beta w, 16 bytes per slot, with a crc over both halves
    d = str(tmp_path)
    M = 200
    halves = [array("q", c) for c in newform_pairs(7, 1, M)]
    crc = zlib.crc32(halves[1], zlib.crc32(halves[0]))
    path = cli.cache_path(d, 7, 1)
    with open(path, "wb") as fh:
        fh.write(f"SYLV2 p=7 i=1 N=189 M={M} order={sys.byteorder} crc={crc:08x}\n".encode())
        for half in halves:
            half.tofile(fh)
    assert read_cache(d, 7, 1) is None
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, out, _ = run_cli(["solve", "7", "--json", "--cache-dir", d], capsys)
    assert code == EXIT_OK
    terms = json.loads(out)["terms"]
    assert writes == [terms] and spans[0][0] == 2  # walked from a_4 on, written once
    line, b = _body(path)
    assert line.startswith(b"SYLV3 ") and b == qexp_coefficients(7, 1, terms)
    assert read_cache(d, 7, 1) == build_form(7, 1, terms)


def test_stale_text_cache_is_ignored(tmp_path, capsys):
    # the former text format lived at qexp_p<p>_i<i>.txt; it is never parsed
    d = str(tmp_path)
    old = os.path.join(d, "qexp_p7_i1.txt")
    text = "SYLV1 p=7 i=1 N=189 M=30\n" + "\n".join(
        cli.coefficient_lines(newform_pairs(7, 1, 30))
    ) + "\n"
    with open(old, "w") as fh:
        fh.write(text)
    assert read_cache(d, 7, 1) is None
    code, _, _ = run_cli(["solve", "7", "--cache-dir", d], capsys)
    assert code == EXIT_OK
    assert read_cache(d, 7, 1) is not None
    with open(old) as fh:
        assert fh.read() == text
    assert sorted(os.listdir(d)) == ["qexp_p7_i1.bin", "qexp_p7_i1.txt"]


def test_unwritable_cache_dir_keeps_the_solve_outcome(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    blocker = tmp_path / "file"
    blocker.write_text("")
    d = str(blocker / "sub")  # under a regular file: never a directory
    code, out, err = run_cli(["solve", "103", "--json", "--cache-dir", d], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["cube_identity"]["ok"] is True
    assert err.count("\n") == 1 and err.startswith("warning: coefficient cache not written")

    def fail(z, D, prec, lattice=None):
        raise par.EvalResidualTooLarge("stub")

    monkeypatch.setattr(par, "evaluate_cm", fail)
    code, out, err = run_cli(["solve", "7", "--cache-dir", d], capsys)
    assert code == EXIT_PRECISION
    lines = err.splitlines()
    assert len(lines) == 2 and out == ""
    assert lines[0].startswith("warning: coefficient cache not written")
    assert lines[1].startswith("error: precision exhausted")


def test_stale_prefix_reads_as_miss_and_is_rewritten(tmp_path, capsys):
    d = str(tmp_path)
    args = ["solve", "7", "--json", "--cache-dir", d]
    code, out_cold, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    path = cli.cache_path(d, 7, 1)
    with open(path, "rb") as fh:
        good = fh.read()
    fresh = read_cache(d, 7, 1)

    def negated(n):  # the stored prefix with b_n replaced by -b_n, or 1 for 0
        b = list(fresh.b)
        k = (n - 1) // 3
        b[k] = -b[k] or 1
        return build_form(7, 1, fresh.terms, b)

    for n in (1, 7, 13, 97):  # b_1, b_p (0, as p | n) and two split primes
        write_cache(d, 7, 1, negated(n))
        assert read_cache(d, 7, 1) is None, n
    write_cache(d, 7, 1, negated(13))
    code, out_warm, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    cold, warm = json.loads(out_cold), json.loads(out_warm)
    assert warm["cube_sum"] == cold["cube_sum"] and warm["attempts"] == []
    with open(path, "rb") as fh:
        assert fh.read() == good


_BODY_7 = array("q", qexp_coefficients(7, 1, 30)).tobytes()
_FIELD = st.tuples(
    st.sampled_from(["p", "i", "N", "M", "order", "crc", "x"]),
    st.sampled_from(["7", "1", "189", "30", "28", "0", "-1", "", "a", "little", "big",
                     "ffffffff", str(10**30), str(2**62)]),
).map("=".join)
_HEADER = st.one_of(
    st.just(f"SYLV3 p=7 i=1 N=189 M=30 order={sys.byteorder}"),
    st.lists(_FIELD, min_size=4, max_size=7).map(lambda kvs: " ".join(["SYLV3"] + kvs)),
    st.text(max_size=40),
)
_BODY = st.one_of(
    st.just(_BODY_7),
    st.binary(min_size=80, max_size=80),  # random entries, right length
    st.binary(max_size=200),
    st.tuples(st.integers(0, 79), st.integers(1, 255)).map(  # one byte flipped
        lambda t: _BODY_7[: t[0]] + bytes([_BODY_7[t[0]] ^ t[1]]) + _BODY_7[t[0] + 1 :]
    ),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(header=_HEADER, body=_BODY, true_crc=st.booleans(), tail=st.binary(max_size=6))
def test_read_cache_fuzz_never_raises(tmp_path, header, body, true_crc, tail):
    # with true_crc the header's crc matches the body, so the read gets as
    # far as spot_check
    if true_crc:
        header += f" crc={zlib.crc32(body):08x}"
    with open(cli.cache_path(str(tmp_path), 7, 1), "wb") as fh:
        fh.write(header.encode("utf-8", "surrogatepass") + b"\n" + body + tail)
    got = read_cache(str(tmp_path), 7, 1)
    assert got is None or got.b == qexp_coefficients(7, 1, got.terms)


def test_cache_env_var_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBESUM_CACHE", str(tmp_path / "envcache"))
    assert cli.default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv("CUBESUM_CACHE")
    assert "cubesum" in cli.default_cache_dir()


def test_cache_env_var_is_read_per_command(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; CUBESUM_CACHE is read on each parse
    for name in ("first", "second"):
        monkeypatch.setenv("CUBESUM_CACHE", str(tmp_path / name))
        assert run_cli(["solve", "7"], capsys)[0] == EXIT_OK
    assert cli._parser() is cli._parser()
    for name in ("first", "second"):
        assert os.listdir(tmp_path / name) == ["qexp_p7_i1.bin"]


def test_qexp_dump(capsys):
    code, out, _ = run_cli(["qexp", "7", "--terms", "15"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "1 1 0"
    assert lines[1] == "4 0 -2"
    assert lines[2] == "7 -2 -3"
    assert lines[3] == "13 2 0"
    # zeros off n = 1 mod 3 are not emitted
    assert all(int(l.split()[0]) % 3 == 1 for l in lines)


def test_fseries_dump_matches_reference(capsys):
    code, out, _ = run_cli(["fseries", "31", "--sign", "+", "--terms", "22"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[:4] == ["0 1 0", "3 1 2", "6 -4 -5", "9 10 5"]


def test_yseries_dump(capsys):
    code, out, _ = run_cli(["yseries", "13", "--terms", "22"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "-3 -1 0"
    assert lines[1] == "0 3/2 3/2"  # y(0) = 2 - pibar/2


# The shortest dumps byte for byte: below --terms 4 only q^-3 and q^0 are
# printed, one line each, every line ended by a newline and no blank line.
_SHORT_DUMPS = [
    (["yseries", "31"], "-3 -1 0\n0 -3/2 0\n"),
    (["yseries", "31", "--conjugate"], "-3 -1 0\n0 -3/2 0\n"),
    (["yseries", "97", "--power", "2"], "-3 -1 0\n0 0 -3/2\n"),
    (["yseries", "97", "--power", "2", "--conjugate"], "-3 -1 0\n0 3/2 3/2\n"),
] + [
    (["fseries", p, "--power", i, "--sign", s], "0 1 0\n")
    for p, i in (("31", "1"), ("97", "2"))
    for s in "+-"
]


@pytest.mark.parametrize("terms", ["1", "2", "3"])
@pytest.mark.parametrize("args,want", _SHORT_DUMPS)
def test_short_series_dumps_are_byte_exact(args, want, terms, capsys):
    code, out, err = run_cli(args + ["--terms", terms], capsys)
    assert (code, out, err) == (EXIT_OK, want, "")


@pytest.mark.parametrize("lines", [[], ["0 1 0"], ["-3 -1 0", "0 1/2 -3/2"]])
def test_series_lines_print_in_one_write(lines, capsys):
    cli._print_lines(lines)
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


# sha256 of the series dumps the benchmark times, at 100 terms, as the
# composition route (wp' composed with z(q), Newton cube roots) printed them
_SERIES_DIGESTS = {
    "yseries-31-1": "3db334aee2ecaaefb4adaeb0488c68e35edde5a1539ed49bffd4f683837d7c60",
    "fseries+-31-1": "d7fc72ef1c42e619243b1e9d610483db1192834257504f9b1522d54e09f9b382",
    "fseries--31-1": "3ab7399eb67a3978c08d0b9aabfc9f159ce80ac4c31c70672f2254d4fb05b274",
    "yseries-97-2": "1742fd878ed27946d2435533ac7e44790302a26902b40dcc8664014fd9e035b9",
    "fseries+-97-2": "ebc37bbb5958a04939fd265c89123665890b4ee86e564fa5bf470bb335cbe65d",
    "fseries--97-2": "bd073757338fe90bf5257fea525b715fb2d8d54c91863753c99eafc5b72f8673",
}


@pytest.mark.parametrize("key", list(_SERIES_DIGESTS))
def test_series_dump_reproduces_the_composition_digest(key, capsys):
    kind, p, i = key.rsplit("-", 2)
    args = [kind.rstrip("+-"), p, "--power", i, "--terms", "100"]
    if kind != "yseries":
        args += ["--sign", kind[-1]]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == _SERIES_DIGESTS[key]


def test_verify_quick(capsys):
    # --quick is accepted and ignored: the p = 31 series run too
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == EXIT_OK
    assert "yseries_p31" in out and "fseries_p31" in out
    assert "all fixtures ok" in out


def test_verify_detects_tampering(capsys, monkeypatch):
    import cubesum.qseries as qs

    real = qs.newform_pairs

    def tampered(p, i, M, conjugate=False):
        alpha, beta = (list(c) for c in real(p, i, M, conjugate=conjugate))
        if len(alpha) > 1:  # a_4, in slot 1
            alpha[1], beta[1] = -alpha[1], -beta[1]
        return alpha, beta

    monkeypatch.setattr(qs, "newform_pairs", tampered)
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == EXIT_FIXTURE_FAIL
    assert "FAIL" in out
    assert "yseries_p7" in out


def test_solve_runs_no_fricke_pass(tmp_path, capsys, monkeypatch):
    # the Fricke constant is checked by verify, not measured on every solve
    import cubesum.analytic as an

    def fail(*args, **kwargs):
        raise AssertionError("fricke_constant called by solve")

    monkeypatch.setattr(an, "fricke_constant", fail)
    code, out, _ = run_cli(
        ["solve", "7", "--bits", "96", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    assert "fricke_beta" not in json.loads(out)["checks"]


def test_cold_solve_splits_p_once(tmp_path, capsys, monkeypatch):
    # the solve, the a_(pm) pass of the coefficients and the nontorsion
    # certificate share one memoized split of p; a bad p still raises
    import cubesum.eisenstein as eis

    eis.split_prime.cache_clear()
    gcd, firsts = eis.gcd_eis, []

    def spy(x, y):
        firsts.append(x)
        return gcd(x, y)

    monkeypatch.setattr(eis, "gcd_eis", spy)
    code, _, _ = run_cli(["solve", "409", "--json", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert firsts.count(eis.EisensteinInt(409, 0)) == 1
    for _ in range(2):
        with pytest.raises(eis.NotSplit):
            eis.split_prime(409 * 3)


def _run_python(*args):
    import subprocess
    import sys

    import cubesum

    src = os.path.dirname(os.path.dirname(os.path.abspath(cubesum.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_solve_and_series_never_import_numpy(tmp_path):
    # importing numpy adds about 11 MB to a process's peak RSS; solves and
    # series dumps stay on plain Python integers
    out = _run_python("-c", (
        "import sys\n"
        "from cubesum import cli\n"
        f"code = cli.main(['solve', '103', '--json', '--cache-dir', {str(tmp_path)!r}])\n"
        "code += cli.main(['yseries', '31', '--terms', '100'])\n"
        "print('numpy loaded' if 'numpy' in sys.modules else 'no numpy', file=sys.stderr)\n"
        "sys.exit(code)\n"
    ))
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stderr.strip() == "no numpy"


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_cli_commands_never_import_dataclasses_or_inspect(tmp_path, flags):
    # dataclasses pulls in inspect, ast, dis and tokenize, and builds its
    # classes by exec: start-up a solve does not need.  Run in a fresh
    # process, since pytest itself imports inspect.
    out = _run_python(*flags, "-c", (
        "import sys\n"
        "from cubesum import cli\n"
        f"d = {str(tmp_path)!r}\n"
        "code = cli.main(['solve', '7', '--cache-dir', d])\n"
        "code += cli.main(['solve', '7', '--cache-dir', d])\n"
        "code += cli.main(['qexp', '7', '--terms', '30'])\n"
        "code += cli.main(['yseries', '31', '--terms', '30'])\n"
        "code += cli.main(['fseries', '31', '--sign', '+', '--terms', '30'])\n"
        "code += cli.main(['verify'])\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    ))
    assert out.returncode == EXIT_OK, out.stderr
    assert os.listdir(tmp_path)  # the first solve wrote the cache the second read
    assert out.stderr.strip() == "[]"


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_solves_never_import_mpmath(tmp_path, flags):
    # a solve's constants (pi, |q|, e^(2 pi i Re tau), the base lattice) and
    # its failure message are integer code, so a solve pays neither mpmath's
    # import nor, where no bytecode is written, its compile.  61^2 cold and
    # warm, 103^1; 103^2 fails its 96-bit rung (RecognitionFailed), so its
    # message is built, in numbers; the capped 61^2 exits 3.  verify's
    # fixtures (Gauss sums, the Fricke constant, the cusp image) are
    # integer code too.
    out = _run_python(*flags, "-c", (
        "import sys\n"
        "from cubesum import cli\n"
        f"d = {str(tmp_path)!r}\n"
        "codes = [cli.main(['solve', '61', '--power', '2', '--cache-dir', d]) for _ in range(2)]\n"
        "codes.append(cli.main(['solve', '103', '--cache-dir', d]))\n"
        "codes.append(cli.main(['solve', '103', '--power', '2', '--json', '--cache-dir', d]))\n"
        "codes.append(cli.main(['solve', '61', '--power', '2', '--max-terms', '100', '--cache-dir', d]))\n"
        "codes.append(cli.main(['verify']))\n"
        "print(codes, 'mpmath' in sys.modules, file=sys.stderr)\n"
    ))
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stderr.splitlines()[-1] == f"[0, 0, 0, 0, {EXIT_PRECISION}, 0] False"
    assert out.stdout.count("    ok  ") == 19 and "all fixtures ok" in out.stdout
    assert ('"message": "x of f not recognized: norm_bits 87, stop_bits 3,'
            ' refused by check 2 (no exact y)"') in out.stdout


def test_verify_under_python_O_detects_a_tampered_reference():
    out = _run_python("-O", "-c", (
        "import sys\n"
        "from cubesum import cli, fixtures\n"
        "assert False, 'asserts are live'\n"
        "fixtures._Y7[0] += 1\n"
        "sys.exit(cli.main(['verify', '--quick']))\n"
    ))
    assert out.returncode == EXIT_FIXTURE_FAIL, out.stderr
    assert "FAIL" in out.stdout and "yseries_p7" in out.stdout
    assert "1 fixture(s) failed" in out.stdout


def test_solve_under_python_O(tmp_path):
    out = _run_python(
        "-O", "-m", "cubesum.cli", "solve", "7", "--json", "--cache-dir", str(tmp_path)
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert json.loads(out.stdout)["checks"]["cube_identity"]["ok"] is True


# ------------------------------------------------------------- argv fuzz

_ELIGIBLE = [7, 13, 31, 43, 61, 67, 79, 97, 103]
_JUNK = ["", "x", "1.5", "0x10", "--json"]


@st.composite
def _count(draw, scale):
    """(token, ok) for a count option: mostly a positive multiple of scale."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_JUNK)), False
    n = draw(st.integers(-1, 40))
    return str(n * scale), n >= 1


@st.composite
def _argv(draw):
    """(argv, bad): a command line over small p and small counts, and whether
    it is bad input (a parse error, a non-positive count, or p not a prime
    = 4, 7 mod 9)."""
    cmd = draw(st.sampled_from(["solve", "qexp", "yseries", "fseries"]))
    if draw(st.integers(0, 3)):
        p = draw(st.sampled_from(_ELIGIBLE))
    else:
        p = draw(st.integers(-3, 110))
    argv, bad = [cmd, str(p)], not (p > 0 and p % 9 in (4, 7) and is_prime_int(p))
    power = draw(st.sampled_from([None, None, "1", "1", "2", "both", "3"]))
    if power is not None:
        argv += ["--power", power]
        bad |= power == "3" or (power == "both" and cmd != "solve")
    if draw(st.booleans()):  # solve: 12 to 480 bits; qexp: up to 1000 terms
        token, ok = draw(_count({"solve": 12, "qexp": 25}.get(cmd, 1)))
        argv += ["--bits" if cmd == "solve" else "--terms", token]
        bad |= not ok
    if cmd == "solve":  # at most 8000 terms keeps every solve small
        token, ok = draw(_count(200))
        argv += ["--max-terms", token]
        bad |= not ok
        if draw(st.booleans()):
            argv.append("--json")
    if cmd in ("qexp", "yseries") and draw(st.booleans()):
        argv.append("--conjugate")
    if cmd == "fseries" and draw(st.booleans()):
        sign = draw(st.sampled_from(["+", "-", "0"]))
        argv += ["--sign", sign]
        bad |= sign == "0"
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-x"])))
        bad = True
    return argv, bad


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_argv())
def test_cli_argv_fuzz(tmp_path, capsys, case):
    # bad input exits 2, nothing ends in a traceback or exit 4, and a solve
    # exits 0 only with every report's cube identity checked
    argv, bad = case
    if argv[0] == "solve":
        argv = argv + ["--cache-dir", str(tmp_path)]
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse's own usage errors
        code = e.code
    out, err = capsys.readouterr()
    if bad:
        assert code == EXIT_BAD_INPUT, (argv, err)
        assert err.strip() and "Traceback" not in err
        return
    assert code in (EXIT_OK, EXIT_PRECISION) if argv[0] == "solve" else code == EXIT_OK, (argv, err)
    if argv[0] == "solve" and code == EXIT_OK:
        if "--json" in argv:
            reports = json.loads(out)
            for rep in reports if isinstance(reports, list) else [reports]:
                assert rep["checks"]["cube_identity"]["ok"] is True
        else:
            powers = 2 if "both" in argv else 1
            assert out.count("check cube_identity: ok") == powers, out
