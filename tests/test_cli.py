import hashlib
import json
import os
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
from cubesum.heckeform import qexp_coefficients


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


def test_solve_json_reports_failed_attempts(tmp_path, capsys):
    code, out, _ = run_cli(
        ["solve", "103", "--power", "2", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["site"], rep["bits"]) == ("wtau(r=47)", 384)
    assert len(rep["attempts"]) == 1
    att = rep["attempts"][0]
    assert (att["site"], att["bits"], att["error"]) == ("wtau(r=47)", 192, "RecognitionFailed")
    assert "not recognized" in att["message"] and "<= 2^84" in att["message"]
    assert rep["checks"]["precision_margin_bits"] == {"f": 25, "fc": 180}


def test_precision_exhausted_lists_every_attempt(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    # the terms cap ends the solve after its one attempt
    code, _, err = run_cli(
        ["solve", "7", "--max-terms", "40", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_PRECISION
    entries = err.split("; ")
    assert len(entries) == 1
    assert "wtau(r=5)@192b: TermsCapExceeded: " in entries[0]

    # precision failures at every rung: all 5 attempts are named
    def fail(cand, split, p, i, prec, *rest):
        raise par.RecognitionFailed(f"stub at {prec}")

    monkeypatch.setattr(par, "_attempt_site", fail)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    assert err.count("b: RecognitionFailed: stub at ") == 5
    for bits in (192, 384, 768, 1536, 3072):
        assert err.count(f"wtau(r=5)@{bits}b: RecognitionFailed: stub at {bits}") == 1


def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    def boom(*a, **k):
        raise AssertionError("deliberate internal failure")

    monkeypatch.setattr(par, "solve_pipeline", boom)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == 4
    assert "internal check failed" in err


def test_sylvester_message_distinct(tmp_path, capsys):
    _, _, err5 = run_cli(["solve", "5", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" in err5
    _, _, err19 = run_cli(["solve", "19", "--cache-dir", str(tmp_path)], capsys)
    assert "Sylvester" not in err19 and "outside this construction" in err19


def test_cache_roundtrip(tmp_path):
    for M in (1, 2, 3, 4, 5, 200):  # every residue of M mod 3
        coeffs = qexp_coefficients(7, 1, M)
        write_cache(str(tmp_path), 7, 1, coeffs)
        assert read_cache(str(tmp_path), 7, 1) == coeffs  # the whole stored prefix
    assert read_cache(str(tmp_path), 13, 1) is None


def _body(path):
    """(header line, alpha[1::3], beta[1::3]) of a cache file."""
    with open(path, "rb") as fh:
        line = fh.readline()
        halves = array("q", fh.read())
    K = len(halves) // 2
    return line, list(halves[:K]), list(halves[K:])


# crc32 of the p = 7, M = 20 body, in each byte order
_CRC_7_20 = {"little": "66822c67", "big": "a410c97a"}


def test_cache_format_stable(tmp_path):
    coeffs = qexp_coefficients(7, 1, 20)
    write_cache(str(tmp_path), 7, 1, coeffs)
    path = cli.cache_path(str(tmp_path), 7, 1)
    assert path.endswith("qexp_p7_i1.bin")
    line, alpha, beta = _body(path)
    crc = _CRC_7_20[sys.byteorder]
    assert line == f"SYLV2 p=7 i=1 N=189 M=20 order={sys.byteorder} crc={crc}\n".encode()
    # a_1, a_4, ..., a_19: K = 7 native int64 entries per half, nothing else
    assert alpha == [1, 0, -2, 0, 2, -4, 7]
    assert beta == [0, -2, -3, 0, 0, -4, 7]
    assert os.path.getsize(path) == len(line) + 16 * 7


def test_write_cache_refuses_a_coefficient_off_the_support(tmp_path):
    for n, half in ((3, 0), (5, 1), (30, 1)):
        coeffs = [list(c) for c in qexp_coefficients(7, 1, 30)]
        coeffs[half][n] = 1
        with pytest.raises(ValueError, match=f"a_{n} = .* off n = 1 mod 3"):
            write_cache(str(tmp_path), 7, 1, coeffs)
    assert os.listdir(tmp_path) == []


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
    real_write, real_walk = cli.write_cache, heckeform._walk

    def write(cache_dir, p, i, coeffs):
        writes.append(len(coeffs[0]) - 1)
        return real_write(cache_dir, p, i, coeffs)

    def walk(p, alpha, beta, M, tables):
        spans.append((len(alpha), M))  # the annulus len(alpha) - 1 < n <= M
        return real_walk(p, alpha, beta, M, tables)

    monkeypatch.setattr(cli, "write_cache", write)
    monkeypatch.setattr(heckeform, "_walk", walk)
    return writes, spans


def test_warm_solve_sieves_nothing_and_writes_nothing(tmp_path, capsys, monkeypatch):
    args = ["solve", "7", "--json", "--cache-dir", str(tmp_path)]
    code, out_cold, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    stored = read_cache(str(tmp_path), 7, 1)
    assert len(stored[0]) - 1 == json.loads(out_cold)["terms"]
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert writes == [] and spans == [(2, 100)]  # only spot_check's fresh a_2..a_100
    assert read_cache(str(tmp_path), 7, 1) == stored


def test_retrying_solve_sieves_each_term_once_and_writes_the_cache_once(
    tmp_path, capsys, monkeypatch
):
    # 103^2 fails at 192 bits and wins at 384 bits (46322 terms): the
    # second attempt walks only the annulus the first did not hold, so
    # each norm n falls in exactly one walk (a_1 = 1 is never walked)
    writes, spans = spy_cache_writes_and_walks(monkeypatch)
    code, out, _ = run_cli(
        ["solve", "103", "--power", "2", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["bits"], rep["terms"]) == (384, 46322)
    assert [a["bits"] for a in rep["attempts"]] == [192]
    built = [n for first, last in spans for n in range(first, last + 1)]
    assert sorted(built) == list(range(2, 46323))
    assert writes == [46322]
    assert read_cache(str(tmp_path), 103, 2) == qexp_coefficients(103, 2, 46322)


def test_exhausted_solve_keeps_its_coefficients(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    def fail(z, D, prec):
        raise par.EvalResidualTooLarge("stub")

    # exit 3 still writes, once, what the failed attempts sieved
    monkeypatch.setattr(par, "evaluate_cm", fail)
    writes, _ = spy_cache_writes_and_walks(monkeypatch)
    code, _, _ = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    stored = read_cache(str(tmp_path), 7, 1)
    assert writes == [len(stored[0]) - 1] and len(stored[0]) > 1
    assert stored == qexp_coefficients(7, 1, len(stored[0]) - 1)


def test_corrupt_cache_reads_as_miss(tmp_path, capsys):
    d = str(tmp_path)
    coeffs = qexp_coefficients(7, 1, 30)
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
    assert corrupted(lambda r: r.replace(b"SYLV2", b"SYLV1")) is None
    assert corrupted(lambda r: r.replace(b"SYLV2", b"SYLV3")) is None
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
    assert stored == qexp_coefficients(7, 1, len(stored[0]) - 1)


def test_corruption_past_the_spot_check_reads_as_miss(tmp_path, capsys):
    d = str(tmp_path)
    args = ["solve", "7", "--json", "--cache-dir", d]
    code, out_cold, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    path = cli.cache_path(d, 7, 1)
    with open(path, "rb") as fh:
        good = fh.read()
    line, alpha, beta = _body(path)
    M = len(read_cache(d, 7, 1)[0]) - 1
    K = (M + 2) // 3
    # the first nonzero a_n past spot_check's n <= 100 (n = 1 + 3k, k >= 34),
    # in each half
    for k, half in ((next(k for k in range(34, K) if alpha[k]), 0),
                    (next(k for k in range(34, K) if beta[k]), 1)):
        pos = len(line) + 8 * (half * K + k)
        with open(path, "wb") as fh:
            fh.write(good[:pos] + bytes([good[pos] ^ 1]) + good[pos + 1:])
        assert read_cache(d, 7, 1) is None, k
    code, out_warm, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert json.loads(out_warm)["cube_sum"] == json.loads(out_cold)["cube_sum"]
    with open(path, "rb") as fh:
        assert fh.read() == good  # rewritten whole


def test_stale_text_cache_is_ignored(tmp_path, capsys):
    # the former text format lived at qexp_p<p>_i<i>.txt; it is never parsed
    d = str(tmp_path)
    old = os.path.join(d, "qexp_p7_i1.txt")
    text = "SYLV1 p=7 i=1 N=189 M=30\n" + "\n".join(
        cli.coefficient_lines(qexp_coefficients(7, 1, 30))
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

    def fail(z, D, prec):
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

    def negated(n):  # the stored prefix with a_n replaced by -a_n
        alpha, beta = list(fresh[0]), list(fresh[1])
        alpha[n], beta[n] = -alpha[n], -beta[n]
        return alpha, beta

    for n in (1, 7, 13, 97):  # a_1, a_p and two split primes
        write_cache(d, 7, 1, negated(n))
        assert read_cache(d, 7, 1) is None, n
    write_cache(d, 7, 1, negated(13))
    code, out_warm, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    cold, warm = json.loads(out_cold), json.loads(out_warm)
    assert warm["cube_sum"] == cold["cube_sum"] and warm["attempts"] == []
    with open(path, "rb") as fh:
        assert fh.read() == good


_COEFFS_7 = qexp_coefficients(7, 1, 30)
_BODY_7 = b"".join(array("q", c[1::3]).tobytes() for c in _COEFFS_7)
_FIELD = st.tuples(
    st.sampled_from(["p", "i", "N", "M", "order", "crc", "x"]),
    st.sampled_from(["7", "1", "189", "30", "28", "0", "-1", "", "a", "little", "big",
                     "ffffffff", str(10**30), str(2**62)]),
).map("=".join)
_HEADER = st.one_of(
    st.just(f"SYLV2 p=7 i=1 N=189 M=30 order={sys.byteorder}"),
    st.lists(_FIELD, min_size=4, max_size=7).map(lambda kvs: " ".join(["SYLV2"] + kvs)),
    st.text(max_size=40),
)
_BODY = st.one_of(
    st.just(_BODY_7),
    st.binary(min_size=160, max_size=160),  # random entries, right length
    st.binary(max_size=200),
    st.tuples(st.integers(0, 159), st.integers(1, 255)).map(  # one byte flipped
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
    assert got is None or got == qexp_coefficients(7, 1, len(got[0]) - 1)


def test_cache_env_var_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBESUM_CACHE", str(tmp_path / "envcache"))
    assert cli.default_cache_dir() == str(tmp_path / "envcache")
    monkeypatch.delenv("CUBESUM_CACHE")
    assert "cubesum" in cli.default_cache_dir()


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

    real = qs.qexp_coefficients

    def tampered(p, i, M, conjugate=False):
        alpha, beta = (list(c) for c in real(p, i, M, conjugate=conjugate))
        if len(alpha) > 4:
            alpha[4], beta[4] = -alpha[4], -beta[4]
        return alpha, beta

    monkeypatch.setattr(qs, "qexp_coefficients", tampered)
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
