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
    RunReport,
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
        "point_K", "point_Q", "cube_sum", "checks", "timings_ms", "attempts",
    }
    assert rep["attempts"] == []  # 13 wins on its first attempt
    assert rep["p"] == 13 and rep["i"] == 1
    assert rep["pi"] == "4+3*w"
    assert set(rep["cube_sum"]) == {"u", "v"}
    # exact strings round-trip through Fraction
    from fractions import Fraction

    u, v = Fraction(rep["cube_sum"]["u"]), Fraction(rep["cube_sum"]["v"])
    assert u**3 + v**3 == 13


def test_report_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(["solve", "7", "--json", "--cache-dir", str(tmp_path)], capsys)
    rep = RunReport(**json.loads(out))
    assert json.loads(out) == rep.to_dict()


def test_report_dict_dumps_as_asdict():
    # to_dict is shallow; its JSON must be the deep asdict copy's, here on a
    # solved report with a failed attempt and the witness in its checks
    from dataclasses import asdict

    from cubesum.curves import WITNESS_PRIME
    from cubesum.parametrize import solve_pipeline

    rep = cli.build_report(solve_pipeline(103, 2))
    assert rep.attempts and rep.checks["nontorsion_certificate"]["witness"] == WITNESS_PRIME
    dump = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
    assert dump == json.dumps(asdict(rep), indent=2, sort_keys=True)


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
    assert "not recognized" in att["message"] and "N(gamma) <= 2^87" in att["message"]
    assert rep["checks"]["precision_margin_bits"] == {"f": 28}


def test_precision_exhausted_lists_every_attempt(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    # the terms cap ends the solve after its one attempt
    code, _, err = run_cli(
        ["solve", "7", "--max-terms", "40", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_PRECISION
    entries = err.split("; ")
    assert len(entries) == 1
    assert "wtau(r=5)@96b: TermsCapExceeded: " in entries[0]

    # precision failures at every rung: all 6 attempts are named
    def fail(cand, split, p, i, prec, *rest):
        raise par.RecognitionFailed(f"stub at {prec}")

    monkeypatch.setattr(par, "_attempt_site", fail)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    assert err.count("b: RecognitionFailed: stub at ") == 6
    for bits in (96, 192, 384, 768, 1536, 3072):
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
    from dataclasses import replace
    from fractions import Fraction

    import cubesum.parametrize as par
    from cubesum.curves import isogeny_to_432, mul, to_cube_sum

    real = par.solve_pipeline(7, 1)
    big = to_cube_sum(*isogeny_to_432(mul(30, real.point_Q), 7, 1), 7, 1)
    assert abs(big.u.numerator) > 10**4300
    monkeypatch.setattr(par, "solve_pipeline", lambda *a, **k: replace(real, cube=big))
    code, out, err = run_cli(["solve", "7", "--json", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK, err
    assert Fraction(json.loads(out)["cube_sum"]["u"]) == big.u


def test_sylvester_message_distinct(tmp_path, capsys):
    _, _, err5 = run_cli(["solve", "5", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" in err5
    _, _, err19 = run_cli(["solve", "19", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" not in err19 and "outside this construction" in err19


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
    # 103^2 fails at 96 bits and wins at 192 bits (23649 terms): the
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
    assert (rep["bits"], rep["terms"]) == (192, 23649)
    assert [a["bits"] for a in rep["attempts"]] == [96]
    built = [n for first, last in spans for n in range(first, last + 1) if n % 3 == 1]
    assert sorted(built) == list(range(4, 23650, 3))
    assert writes == [23649]
    assert read_cache(str(tmp_path), 103, 2) == build_form(103, 2, 23649)


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
