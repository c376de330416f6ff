import json
import os

from cubesum import cli
from cubesum.cli import (
    EXIT_BAD_INPUT,
    EXIT_FIXTURE_FAIL,
    EXIT_OK,
    EXIT_PRECISION,
    RunReport,
    cached_form_factory,
    read_cache,
    write_cache,
)
from cubesum.eisenstein import EisensteinInt
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


def test_solve_json_reports_failed_attempts(tmp_path, capsys):
    code, out, _ = run_cli(
        ["solve", "79", "--power", "2", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert (rep["site"], rep["bits"]) == ("wtau(r=56)", 384)
    assert len(rep["attempts"]) == 1
    att = rep["attempts"][0]
    assert (att["site"], att["bits"], att["error"]) == ("wtau(r=56)", 192, "RecognitionFailed")
    assert "exact curve equation" in att["message"]


def test_precision_exhausted_lists_every_attempt(tmp_path, capsys, monkeypatch):
    import cubesum.parametrize as par

    # the terms cap is a site failure: one attempt per site
    code, _, err = run_cli(
        ["solve", "7", "--max-terms", "40", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_PRECISION
    entries = err.split("; ")
    assert len(entries) == 4
    assert all("@192b: TermsCapExceeded: " in e for e in entries)

    # precision failures everywhere: all 20 (site, bits) attempts are named
    def fail(cand, split, p, i, prec, *rest):
        raise par.RecognitionFailed(f"stub at {prec}")

    monkeypatch.setattr(par, "_attempt_site", fail)
    code, _, err = run_cli(["solve", "7", "--cache-dir", str(tmp_path)], capsys)
    assert code == EXIT_PRECISION
    for bits in (192, 384, 768, 1536, 3072):
        assert err.count(f"@{bits}b: RecognitionFailed: stub at {bits}") == 4


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
    coeffs = qexp_coefficients(7, 1, 200)
    write_cache(str(tmp_path), 7, 1, coeffs)
    back = read_cache(str(tmp_path), 7, 1, 200)
    assert back == coeffs
    assert read_cache(str(tmp_path), 7, 1, 150) == coeffs[:151]
    assert read_cache(str(tmp_path), 7, 1, 500) is None  # too short
    assert read_cache(str(tmp_path), 13, 1, 10) is None


def test_cache_format_stable(tmp_path):
    coeffs = qexp_coefficients(7, 1, 20)
    write_cache(str(tmp_path), 7, 1, coeffs)
    text = open(cli.cache_path(str(tmp_path), 7, 1)).read()
    lines = text.splitlines()
    assert lines[0] == "SYLV1 p=7 i=1 N=189 M=20"
    assert lines[1] == "1 1 0"
    assert lines[2] == "4 0 -2"
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_cold_and_warm_cache_reports_identical(tmp_path, capsys):
    args = ["solve", "13", "--json", "--cache-dir", str(tmp_path)]
    _, out_cold, _ = run_cli(args, capsys)
    assert os.path.exists(cli.cache_path(str(tmp_path), 13, 1))
    _, out_warm, _ = run_cli(args, capsys)
    cold, warm = json.loads(out_cold), json.loads(out_warm)
    cold.pop("timings_ms")
    warm.pop("timings_ms")
    assert cold == warm


def test_cached_factory_used(tmp_path):
    factory = cached_form_factory(str(tmp_path))
    f1 = factory(7, 1, 60)
    assert os.path.exists(cli.cache_path(str(tmp_path), 7, 1))
    f2 = factory(7, 1, 60)
    assert f1.coeffs == f2.coeffs


def test_corrupt_cache_reads_as_miss(tmp_path):
    coeffs = qexp_coefficients(7, 1, 30)
    write_cache(str(tmp_path), 7, 1, coeffs)
    path = cli.cache_path(str(tmp_path), 7, 1)
    with open(path, "a") as fh:
        fh.write("not a coefficient line\n")
    assert read_cache(str(tmp_path), 7, 1, 30) is None
    factory = cached_form_factory(str(tmp_path))
    f = factory(7, 1, 30)  # recomputes and rewrites
    assert f.coeffs == tuple(coeffs)
    assert read_cache(str(tmp_path), 7, 1, 30) == coeffs


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


def test_verify_quick(capsys):
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == EXIT_OK
    assert "yseries_p31" not in out  # the slow series is skipped
    assert "all fixtures ok" in out


def test_verify_detects_tampering(capsys, monkeypatch):
    import cubesum.qseries as qs

    real = qs.qexp_coefficients

    def tampered(p, i, M, conjugate=False):
        out = list(real(p, i, M, conjugate=conjugate))
        if len(out) > 4:
            out[4] = -out[4]
        return out

    monkeypatch.setattr(qs, "qexp_coefficients", tampered)
    code, out, _ = run_cli(["verify", "--quick"], capsys)
    assert code == EXIT_FIXTURE_FAIL
    assert "FAIL" in out
    assert "yseries_p7" in out


def test_solve_below_160_bits_reports_fricke_beta(tmp_path, capsys):
    # measure_beta runs at min(bits, 160) on the form the solve won with
    code, out, _ = run_cli(
        ["solve", "7", "--bits", "96", "--json", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    beta = json.loads(out)["checks"]["fricke_beta"]
    assert beta["sixth_root_power"] in range(6)
    assert int(beta["residual"].removeprefix("2^")) < -48


def _run_python_O(args):
    import subprocess
    import sys

    import cubesum

    src = os.path.dirname(os.path.dirname(os.path.abspath(cubesum.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    return subprocess.run(
        [sys.executable, "-O", *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_verify_under_python_O_detects_a_tampered_reference():
    out = _run_python_O(["-c", (
        "import sys\n"
        "from cubesum import cli, fixtures\n"
        "assert False, 'asserts are live'\n"
        "fixtures._Y7[0] += 1\n"
        "sys.exit(cli.main(['verify', '--quick']))\n"
    )])
    assert out.returncode == EXIT_FIXTURE_FAIL, out.stderr
    assert "FAIL" in out.stdout and "yseries_p7" in out.stdout
    assert "1 fixture(s) failed" in out.stdout


def test_solve_under_python_O(tmp_path):
    out = _run_python_O(
        ["-m", "cubesum.cli", "solve", "7", "--json", "--cache-dir", str(tmp_path)]
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert json.loads(out.stdout)["checks"]["cube_identity"]["ok"] is True
